package budget

// Cross-process budget propagation. When a query's shard fetches cross
// the RPC plane, the worker must honor the same deadline the router-side
// Meter enforces — otherwise a worker could keep serving a request after
// the query's deadline passed on the router. A Header is the wire form of
// "what is left of this query's budget at send time": remaining wall
// clock and remaining walk/work caps. The worker bounds the request by
// the remaining wall clock. The remaining-time encoding re-anchors at the
// worker's clock, so the worker's effective deadline lags the router's by
// up to one network delay — a worker can overshoot the query deadline by
// that delay, never undershoot it. The router does not wait for the
// stragglers: its own meter trips on time, the query returns, and the
// per-call socket deadline reaps the request. (Encoding remaining time
// rather than an absolute instant is deliberate: it needs no cross-host
// clock agreement.)

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Header is the wire form of a query budget: what remains of it at encode
// time. The zero value means unbounded.
type Header struct {
	// Remaining is the wall clock left until the query's deadline;
	// <= 0 means no deadline.
	Remaining time.Duration
	// MaxWalks and MaxWork are the remaining walk-trial and probe-work
	// caps; <= 0 means uncapped. The shard plane sends 0: its workers
	// run no kernel a cap could bound.
	MaxWalks int64
	MaxWork  int64
}

// HeaderSize is the encoded size of a Header in bytes.
const HeaderSize = 24

// AppendBinary appends the fixed-size wire encoding (little-endian
// nanoseconds remaining, walk cap, work cap).
func (h Header) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Remaining))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.MaxWalks))
	return binary.LittleEndian.AppendUint64(b, uint64(h.MaxWork))
}

// DecodeHeader consumes a Header from the front of b and returns the rest.
func DecodeHeader(b []byte) (Header, []byte, error) {
	if len(b) < HeaderSize {
		return Header{}, nil, fmt.Errorf("budget: header truncated: %d of %d bytes", len(b), HeaderSize)
	}
	h := Header{
		Remaining: time.Duration(binary.LittleEndian.Uint64(b)),
		MaxWalks:  int64(binary.LittleEndian.Uint64(b[8:])),
		MaxWork:   int64(binary.LittleEndian.Uint64(b[16:])),
	}
	return h, b[HeaderSize:], nil
}
