// Package logx is the one logger of the Perm system: every component that
// logs — the server and its sessions' slow-query records, the follower, the
// cluster node, the coordinator, the router and the write-ahead log — takes
// a *Logger in its configuration, and a nil *Logger logs nothing.
//
// A record is a level, a message and key=value fields, rendered either as
// aligned text or as one JSON object per line (-log-format text|json) with
// the fields as typed keys. The levels mean the same thing everywhere:
// Error for a failure that needs an operator (the WAL refusing writes, a
// failed promotion), Warn for an error the component retries or recovers
// from, Info for lifecycle, Debug for per-connection detail. With binds
// fields — a connection's peer, later a statement id — once for every
// record a child logger writes.
package logx

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	}
	return fmt.Sprintf("LEVEL(%d)", int(l))
}

// Logger writes leveled records to one destination. Safe for concurrent use;
// a nil *Logger drops every record.
type Logger struct {
	out    *output
	fields []any // bound by With, written before each record's own
}

// output is what a logger shares with the children With makes of it.
type output struct {
	mu        sync.Mutex
	w         io.Writer
	jsonMode  bool
	level     Level
	component string // e.g. "permserver"; empty omits the field
	now       func() time.Time
}

// New builds a logger. format is "text" or "json" (anything else falls back
// to text). Records below min are dropped.
func New(w io.Writer, format string, min Level, component string) *Logger {
	return &Logger{out: &output{
		w:         w,
		jsonMode:  strings.EqualFold(format, "json"),
		level:     min,
		component: component,
		now:       time.Now,
	}}
}

// Default logs text at Info to stderr: where an embedded session's
// slow-query records go unless SetLog points them elsewhere.
var Default = New(os.Stderr, "text", LevelInfo, "")

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "", "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("unknown log level %q (debug|info|warn|error)", s)
}

// With returns a child logger that writes fields (alternating keys and
// values) before each record's own. It shares l's writer, lock and level.
func (l *Logger) With(fields ...any) *Logger {
	if l == nil {
		return nil
	}
	if len(fields)%2 == 1 {
		fields = append(fields[:len(fields)-1:len(fields)-1], "arg", fields[len(fields)-1])
	}
	return &Logger{out: l.out, fields: append(l.fields[:len(l.fields):len(l.fields)], fields...)}
}

// Log emits one record with alternating key, value fields. Keys must be
// strings; values are rendered with %v (JSON mode keeps string/int/bool/
// float types native). Odd trailing fields get the key "arg".
func (l *Logger) Log(level Level, msg string, fields ...any) {
	if l == nil || level < l.out.level {
		return
	}
	if len(l.fields) > 0 {
		fields = append(l.fields[:len(l.fields):len(l.fields)], fields...)
	}
	o := l.out
	ts := o.now().UTC().Format(time.RFC3339Nano)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.jsonMode {
		rec := make(map[string]any, 4+len(fields)/2)
		rec["ts"] = ts
		rec["level"] = strings.ToLower(level.String())
		rec["msg"] = msg
		if o.component != "" {
			rec["component"] = o.component
		}
		for i := 0; i+1 < len(fields); i += 2 {
			key, ok := fields[i].(string)
			if !ok {
				key = fmt.Sprintf("%v", fields[i])
			}
			rec[key] = jsonValue(fields[i+1])
		}
		if len(fields)%2 == 1 {
			rec["arg"] = jsonValue(fields[len(fields)-1])
		}
		b, err := json.Marshal(rec)
		if err != nil {
			b = []byte(fmt.Sprintf(`{"ts":%q,"level":"error","msg":"logx: marshal: %v"}`, ts, err))
		}
		o.w.Write(append(b, '\n'))
		return
	}
	var sb strings.Builder
	sb.WriteString(ts)
	sb.WriteByte(' ')
	sb.WriteString(level.String())
	sb.WriteByte(' ')
	if o.component != "" {
		sb.WriteString(o.component)
		sb.WriteString(": ")
	}
	sb.WriteString(msg)
	for i := 0; i+1 < len(fields); i += 2 {
		fmt.Fprintf(&sb, " %v=%s", fields[i], textValue(fields[i+1]))
	}
	if len(fields)%2 == 1 {
		fmt.Fprintf(&sb, " arg=%s", textValue(fields[len(fields)-1]))
	}
	sb.WriteByte('\n')
	io.WriteString(o.w, sb.String())
}

// jsonValue keeps JSON-native types as-is and stringifies the rest.
func jsonValue(v any) any {
	switch v.(type) {
	case nil, string, bool,
		int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, json.Number:
		return v
	case time.Duration:
		return v.(time.Duration).String()
	case error:
		return v.(error).Error()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// textValue quotes values containing spaces so text lines stay splittable.
func textValue(v any) string {
	s := fmt.Sprintf("%v", v)
	if strings.ContainsAny(s, " \t\n\"=") {
		return fmt.Sprintf("%q", s)
	}
	return s
}

// Debug, Info, Warn and Error emit at their level.
func (l *Logger) Debug(msg string, fields ...any) { l.Log(LevelDebug, msg, fields...) }
func (l *Logger) Info(msg string, fields ...any)  { l.Log(LevelInfo, msg, fields...) }
func (l *Logger) Warn(msg string, fields ...any)  { l.Log(LevelWarn, msg, fields...) }
func (l *Logger) Error(msg string, fields ...any) { l.Log(LevelError, msg, fields...) }
