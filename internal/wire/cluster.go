package wire

import "encoding/binary"

// NodeStatus is one member's answer to a MsgStatus probe (and the payload of
// the MsgStatusOK that acknowledges Promote/Demote): everything a coordinator
// or router needs to classify the member — role, fencing epoch, timeline
// origin, replication positions and health — in one small frame.
type NodeStatus struct {
	// Role is "primary" or "replica".
	Role string
	// Epoch is the fencing epoch the member currently serves under.
	Epoch uint64
	// Origin identifies the member's timeline (PR 3's fork detection id).
	Origin uint64
	// AppliedLSN is the newest change record in the member's store;
	// DurableLSN the newest one its WAL has fsynced (equal to AppliedLSN
	// when the WAL is disabled). PrimaryLSN is the upstream position a
	// replica last observed; on a primary it equals AppliedLSN.
	AppliedLSN uint64
	DurableLSN uint64
	PrimaryLSN uint64
	// Connected reports whether a replica's subscription stream is live.
	// Always true on a primary.
	Connected bool
	// StalenessMs is the wall-clock milliseconds since a replica last
	// either applied records or confirmed it was caught up; 0 on a primary
	// and on a caught-up replica.
	StalenessMs int64
	// LastError is the most recent replication error, empty while healthy.
	LastError string
}

// LagRecords is the member's apply lag in change records.
func (m NodeStatus) LagRecords() uint64 {
	if m.PrimaryLSN > m.AppliedLSN {
		return m.PrimaryLSN - m.AppliedLSN
	}
	return 0
}

// Encode appends the NodeStatus payload.
func (m NodeStatus) Encode(dst []byte) []byte {
	dst = AppendString(dst, m.Role)
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, m.Origin)
	dst = binary.AppendUvarint(dst, m.AppliedLSN)
	dst = binary.AppendUvarint(dst, m.DurableLSN)
	dst = binary.AppendUvarint(dst, m.PrimaryLSN)
	dst = AppendBool(dst, m.Connected)
	dst = binary.AppendVarint(dst, m.StalenessMs)
	return AppendString(dst, m.LastError)
}

// DecodeNodeStatus parses a NodeStatus payload.
func DecodeNodeStatus(payload []byte) (NodeStatus, error) {
	r := NewReader(payload)
	m := NodeStatus{
		Role:       r.String(),
		Epoch:      r.Uvarint(),
		Origin:     r.Uvarint(),
		AppliedLSN: r.Uvarint(),
		DurableLSN: r.Uvarint(),
		PrimaryLSN: r.Uvarint(),
		Connected:  r.Bool(),
	}
	m.StalenessMs = r.Varint()
	m.LastError = r.String()
	return m, r.Done()
}

// Promote orders a member to fence itself at Epoch (which must be higher
// than the epoch it serves under) and start accepting writes.
type Promote struct {
	Epoch uint64
}

// Encode appends the Promote payload.
func (m Promote) Encode(dst []byte) []byte {
	return binary.AppendUvarint(dst, m.Epoch)
}

// DecodePromote parses a Promote payload.
func DecodePromote(payload []byte) (Promote, error) {
	r := NewReader(payload)
	m := Promote{Epoch: r.Uvarint()}
	return m, r.Done()
}

// Demote orders a member to fence itself at Epoch (at least as high as the
// epoch it serves under), enter read-only mode and follow PrimaryAddr.
type Demote struct {
	Epoch       uint64
	PrimaryAddr string
}

// Encode appends the Demote payload.
func (m Demote) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Epoch)
	return AppendString(dst, m.PrimaryAddr)
}

// DecodeDemote parses a Demote payload.
func DecodeDemote(payload []byte) (Demote, error) {
	r := NewReader(payload)
	m := Demote{Epoch: r.Uvarint(), PrimaryAddr: r.String()}
	return m, r.Done()
}
