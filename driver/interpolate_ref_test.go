package driver

import (
	sqldriver "database/sql/driver"
	"fmt"
	"math"
	"strings"
	"time"

	"perm/internal/value"
)

// interpolate substitutes `?` placeholders with SQL literals. It is on no
// execution path — parameters travel as typed wire binds — and lives in a
// test file as the reference for the literal forms binds must match
// (interpolate_test pins them, the differential suite compares all three
// paths).
func interpolate(query string, args []sqldriver.NamedValue) (string, error) {
	pos := placeholderPositions(query)
	if len(pos) != len(args) {
		return "", fmt.Errorf("perm driver: %d arguments for %d placeholders", len(args), len(pos))
	}
	if len(args) == 0 {
		return query, nil
	}
	var b strings.Builder
	b.Grow(len(query) + 16*len(args))
	last := 0
	for k, p := range pos {
		b.WriteString(query[last:p])
		lit, err := literal(args[k].Value)
		if err != nil {
			return "", err
		}
		b.WriteString(lit)
		last = p + 1
	}
	b.WriteString(query[last:])
	return b.String(), nil
}

// literal renders one bound argument as a SQL literal.
func literal(v sqldriver.Value) (string, error) {
	switch x := v.(type) {
	case nil:
		return "NULL", nil
	case bool:
		return value.NewBool(x).SQLLiteral(), nil
	case int64:
		return value.NewInt(x).SQLLiteral(), nil
	case float64:
		// The SQL dialect has no literal form for non-finite floats; reject
		// them here rather than emitting tokens the parser misreads.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "", fmt.Errorf("perm driver: cannot bind non-finite float %v", x)
		}
		return value.NewFloat(x).SQLLiteral(), nil
	case string:
		return value.NewString(x).SQLLiteral(), nil
	case []byte:
		if x == nil {
			return "NULL", nil // database/sql convention: nil []byte is NULL
		}
		return value.NewString(string(x)).SQLLiteral(), nil
	case time.Time:
		return value.NewString(x.Format(time.RFC3339Nano)).SQLLiteral(), nil
	}
	return "", fmt.Errorf("perm driver: unsupported argument type %T", v)
}
