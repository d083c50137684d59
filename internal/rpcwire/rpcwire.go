// Package rpcwire is the binary wire codec of the cross-process shard
// plane: length-prefixed frames over a byte stream, with hand-rolled
// little-endian message encodings. The protocol is deliberately tiny —
// a handful of request/reply pairs and an error frame — because the
// shard engine API it carries (report version / resolve shard adjacency
// blocks / apply mutations / publish) is tiny. Each operation has exactly
// one wire form: the query path speaks only the batched TShards message,
// so fetching one shard is a batch of one.
//
// Frame layout:
//
//	u32 payload length | u8 message type | payload
//
// Every REQUEST payload begins with a budget.Header (remaining deadline +
// remaining walk/work caps), so the worker bounds the request by the
// router-side query's deadline and never keeps working for a query whose
// client already gave up.
//
// Replies carry no budget header. A handler failure of any kind travels
// as a TErr frame (code + message) so the client can distinguish
// semantic errors (unknown generation, bad shard id) from transport
// failures (broken/timed-out connection), which surface as I/O errors.
//
// # Optional trailers
//
// TShards and TApply requests may carry a tagged trailer after their
// fixed encoding: the trace context of a sampled query, next to the
// budget header they already carry. Every worker parses it, so a
// sampled query's requests always carry one and an unsampled query's
// never do. The corresponding replies (and the MetaReply answering
// TApply) carry the worker's recorded spans back the same way. The
// MetaReply answering TMeta or TPublish instead carries the version of
// each owned shard's block, 8 bytes per entry of Owned in Owned order,
// which lets a router keep every block whose version did not move. A
// message without trailers is exactly its fixed encoding, and the fixed
// decoders stop where the fixed fields end, so a peer whose decoder
// predates a trailer reads the same fields and ignores it. TMeta/TPing
// requests reject trailing bytes, so trailers are never attached to
// them.
//
// Trailers are canonical: a message carries at most one, under the tag
// its kind allows, with an exact body length. The parser accepts only
// that form and treats anything else after the fixed fields as arbitrary
// trailing garbage. Canonical form keeps decode→encode an identity on
// the trailer bytes.
package rpcwire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
)

// Message types. Codes 3–6 and 12–13 are retired and not reused: a
// worker answers a frame of a retired type with CodeBadRequest, like any
// unknown type.
const (
	TMeta      uint8 = 1  // MetaRequest -> MetaReply: report version/shape
	TMetaRep   uint8 = 2  // MetaReply
	TApply     uint8 = 7  // ApplyRequest -> MetaReply: apply edge mutations
	TPublish   uint8 = 8  // PublishRequest -> MetaReply: republish + report
	TErr       uint8 = 9  // ErrorReply
	TPing      uint8 = 10 // PingRequest -> PingReply: version/watermark probe
	TPingRep   uint8 = 11 // PingReply
	TShards    uint8 = 14 // ShardsRequest -> ShardsReply: resolve N adjacency blocks
	TShardsRep uint8 = 15 // ShardsReply
)

// Error codes carried by TErr frames.
const (
	CodeInternal    uint8 = 1 // handler failure (bad op, storage error)
	CodeRetiredGen  uint8 = 2 // requested generation no longer retained
	CodeBadRequest  uint8 = 3 // malformed or out-of-range request
	CodeUnavailable uint8 = 4 // retry-safe refusal (e.g. annulled WAL append); the batch id was not consumed
)

// MaxFrame bounds a frame's payload. A shard block of a billion-edge
// graph fits; a corrupt length prefix does not get to allocate the
// machine.
const MaxFrame = 1 << 30

// Trailer tags. Each trailer is tag (u32) | body length (u32) | body.
const (
	tagTrace    uint32 = 0x43525451 // "QTRC": TraceContext on a request
	tagSpans    uint32 = 0x534E5053 // "SPNS": recorded worker spans on a reply
	tagVersions uint32 = 0x52455653 // "SVER": owned shards' versions on a MetaReply
)

// TraceContext is the cross-process form of "this request belongs to a
// sampled trace": the 128-bit trace id plus the caller-side span the
// worker's spans re-parent under when grafted back.
type TraceContext struct {
	Hi, Lo uint64
	Parent uint32
}

const traceContextSize = 20

// appendTrailer emits one canonical trailer.
func appendTrailer(b []byte, tag uint32, body []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, tag)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...)
}

func appendTraceTrailer(b []byte, tc TraceContext) []byte {
	var body [traceContextSize]byte
	binary.LittleEndian.PutUint64(body[0:], tc.Hi)
	binary.LittleEndian.PutUint64(body[8:], tc.Lo)
	binary.LittleEndian.PutUint32(body[16:], tc.Parent)
	return appendTrailer(b, tagTrace, body[:])
}

// maxWireSpans bounds a decoded span trailer: hostile counts cannot
// allocate past what one trace may hold anyway.
const maxWireSpans = qtrace.MaxSpans

// appendSpansTrailer emits recorded spans. Callers skip it for empty
// slices (the canonical form never carries a zero count).
func appendSpansTrailer(b []byte, spans []qtrace.Span) []byte {
	if len(spans) > maxWireSpans {
		spans = spans[:maxWireSpans]
	}
	body := make([]byte, 0, 64*len(spans))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(spans)))
	for _, s := range spans {
		body = binary.LittleEndian.AppendUint32(body, s.ID)
		body = binary.LittleEndian.AppendUint32(body, s.Parent)
		body = binary.LittleEndian.AppendUint64(body, uint64(s.Start))
		body = binary.LittleEndian.AppendUint64(body, uint64(s.End))
		body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Name)))
		body = append(body, s.Name...)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Attrs)))
		body = append(body, s.Attrs...)
	}
	return appendTrailer(b, tagSpans, body)
}

// appendVersionsTrailer emits owned shards' versions. Callers skip it
// unless there is one version per owned shard and at least one.
func appendVersionsTrailer(b []byte, versions []uint64) []byte {
	body := make([]byte, 0, 8*len(versions))
	for _, v := range versions {
		body = binary.LittleEndian.AppendUint64(body, v)
	}
	return appendTrailer(b, tagVersions, body)
}

// trailer returns the body of the trailer tagged tag at the head of b,
// or ok = false when b does not start with one (a trailer-free message,
// another tag, or a truncated body). Whatever follows the trailer is
// ignored, like any other trailing bytes.
func trailer(b []byte, tag uint32) (body []byte, ok bool) {
	if len(b) < 8 || binary.LittleEndian.Uint32(b) != tag {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b)-8 < n {
		return nil, false
	}
	return b[8 : 8+n], true
}

// parseTrace reads a request's optional trace-context trailer: nil unless
// b starts with a canonical one.
func parseTrace(b []byte) *TraceContext {
	body, ok := trailer(b, tagTrace)
	if !ok || len(body) != traceContextSize {
		return nil
	}
	return &TraceContext{
		Hi:     binary.LittleEndian.Uint64(body[0:]),
		Lo:     binary.LittleEndian.Uint64(body[8:]),
		Parent: binary.LittleEndian.Uint32(body[16:]),
	}
}

// parseSpans reads a reply's optional span trailer: nil unless b starts
// with a canonical one.
func parseSpans(b []byte) []qtrace.Span {
	body, ok := trailer(b, tagSpans)
	if !ok {
		return nil
	}
	spans, _ := decodeSpansBody(body)
	return spans
}

// parseVersions reads a MetaReply's optional shard-version trailer: nil
// unless b starts with a canonical one holding exactly owned versions.
func parseVersions(b []byte, owned int) []uint64 {
	body, ok := trailer(b, tagVersions)
	if !ok || owned == 0 || len(body) != 8*owned {
		return nil
	}
	versions := make([]uint64, owned)
	for i := range versions {
		versions[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	return versions
}

// decodeSpansBody decodes a span trailer body; ok is false unless the
// body is exactly canonical (count > 0, fully consumed).
func decodeSpansBody(body []byte) ([]qtrace.Span, bool) {
	d := dec{b: body}
	n := d.u32()
	if d.err != nil || n == 0 || n > maxWireSpans || len(d.b) < 32*int(n) {
		return nil, false
	}
	spans := make([]qtrace.Span, 0, n)
	for i := uint32(0); i < n; i++ {
		s := qtrace.Span{ID: d.u32(), Parent: d.u32()}
		s.Start = time.Duration(d.u64())
		s.End = time.Duration(d.u64())
		s.Name = d.str()
		s.Attrs = d.str()
		if d.err != nil {
			return nil, false
		}
		spans = append(spans, s)
	}
	if len(d.b) != 0 {
		return nil, false
	}
	return spans, true
}

// WriteFrame writes one frame. The payload must be shorter than MaxFrame.
func WriteFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) >= MaxFrame {
		return fmt.Errorf("rpcwire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameChunk is the increment ReadFrame grows its buffer by for large
// payloads: allocation tracks bytes actually received, so a corrupt or
// hostile length prefix claiming a near-MaxFrame payload over a starved
// connection costs one chunk, not a gigabyte.
const frameChunk = 1 << 20

// ReadFrame reads one frame, reusing buf when it is large enough. For
// payloads beyond frameChunk the buffer grows incrementally as bytes
// arrive, so the allocation for a frame is bounded by what the peer
// actually sent (plus one chunk), never by the length prefix alone.
func ReadFrame(r io.Reader, buf []byte) (typ uint8, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n >= MaxFrame {
		return 0, nil, fmt.Errorf("rpcwire: frame of %d bytes exceeds limit", n)
	}
	if cap(buf) >= n || n <= frameChunk {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, nil, err
		}
		return hdr[4], buf, nil
	}
	buf = buf[:0]
	for len(buf) < n {
		chunk := n - len(buf)
		if chunk > frameChunk {
			chunk = frameChunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return 0, nil, err
		}
	}
	return hdr[4], buf, nil
}

// dec is a cursor over a reply/request payload; the first decode error
// sticks and poisons everything after it, so message decoders check err
// once at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("rpcwire: truncated %s", what)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail("u8")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// u32s decodes a length-prefixed []uint32 (count, then values).
func (d *dec) u32s() []uint32 {
	n := d.u32()
	if d.err != nil || len(d.b) < 4*int(n) {
		d.fail("u32 array")
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.b[4*i:])
	}
	d.b = d.b[4*n:]
	return out
}

// nodes decodes a length-prefixed []graph.NodeID.
func (d *dec) nodes() []graph.NodeID {
	n := d.u32()
	if d.err != nil || len(d.b) < 4*int(n) {
		d.fail("node array")
		return nil
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(int32(binary.LittleEndian.Uint32(d.b[4*i:])))
	}
	d.b = d.b[4*n:]
	return out
}

func (d *dec) str() string {
	n := d.u32()
	if d.err != nil || len(d.b) < int(n) {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func appendU32s(b []byte, v []uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

func appendNodes(b []byte, v []graph.NodeID) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// MetaRequest asks an engine to report its published shape and version.
type MetaRequest struct {
	Budget budget.Header
}

func (m MetaRequest) Append(b []byte) []byte { return m.Budget.AppendBinary(b) }

func DecodeMetaRequest(b []byte) (MetaRequest, error) {
	h, rest, err := budget.DecodeHeader(b)
	if err != nil {
		return MetaRequest{}, err
	}
	if len(rest) != 0 {
		return MetaRequest{}, fmt.Errorf("rpcwire: %d trailing bytes in meta request", len(rest))
	}
	return MetaRequest{Budget: h}, nil
}

// MetaReply reports an engine's published graph shape: the reply to
// TMeta, TApply and TPublish. LastBatch is the worker's durable
// apply-once watermark; the router seeds its batch-id counter from the
// fleet maximum so ids stay monotonic across router restarts.
type MetaReply struct {
	Nodes     uint64
	Edges     uint64
	Version   uint64
	LastBatch uint64
	Shift     uint32
	Shards    uint32
	Owned     []uint32 // shard ids this engine serves

	// Spans carries the worker's recorded spans back to a traced caller
	// (TApply replies). Empty for untraced requests.
	Spans []qtrace.Span
	// ShardVersions, aligned with Owned, carries the version of each
	// owned shard's block (TMeta and TPublish replies). Nil when the
	// worker reports none.
	ShardVersions []uint64
}

// Append encodes the reply with at most one trailer: Spans when set,
// otherwise ShardVersions when it holds one version per owned shard.
func (m MetaReply) Append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, m.Nodes)
	b = binary.LittleEndian.AppendUint64(b, m.Edges)
	b = binary.LittleEndian.AppendUint64(b, m.Version)
	b = binary.LittleEndian.AppendUint64(b, m.LastBatch)
	b = binary.LittleEndian.AppendUint32(b, m.Shift)
	b = binary.LittleEndian.AppendUint32(b, m.Shards)
	b = appendU32s(b, m.Owned)
	switch {
	case len(m.Spans) > 0:
		b = appendSpansTrailer(b, m.Spans)
	case len(m.ShardVersions) > 0 && len(m.ShardVersions) == len(m.Owned):
		b = appendVersionsTrailer(b, m.ShardVersions)
	}
	return b
}

func DecodeMetaReply(b []byte) (MetaReply, error) {
	d := dec{b: b}
	m := MetaReply{
		Nodes:     d.u64(),
		Edges:     d.u64(),
		Version:   d.u64(),
		LastBatch: d.u64(),
		Shift:     d.u32(),
		Shards:    d.u32(),
		Owned:     d.u32s(),
	}
	if d.err == nil {
		m.Spans = parseSpans(d.b)
		m.ShardVersions = parseVersions(d.b, len(m.Owned))
	}
	return m, d.err
}

// ShardsRequest asks for shards' CSR blocks at generation Version in one
// round trip: every block a router's view generation lacks from the
// worker's group when its first query binds.
type ShardsRequest struct {
	Budget  budget.Header
	Version uint64
	Shards  []uint32
	// Trace, when non-nil, ties this request to a sampled caller-side
	// trace (optional trailer).
	Trace *TraceContext
}

func (m ShardsRequest) Append(b []byte) []byte {
	b = m.Budget.AppendBinary(b)
	b = binary.LittleEndian.AppendUint64(b, m.Version)
	b = appendU32s(b, m.Shards)
	if m.Trace != nil {
		b = appendTraceTrailer(b, *m.Trace)
	}
	return b
}

func DecodeShardsRequest(b []byte) (ShardsRequest, error) {
	h, rest, err := budget.DecodeHeader(b)
	if err != nil {
		return ShardsRequest{}, err
	}
	d := dec{b: rest}
	m := ShardsRequest{Budget: h, Version: d.u64(), Shards: d.u32s()}
	if d.err == nil {
		m.Trace = parseTrace(d.b)
	}
	return m, d.err
}

// ShardsReply carries the requested CSR blocks in request order.
type ShardsReply struct {
	CSRs []graph.CSRShard
	// Spans carries the worker's recorded spans for a traced request.
	Spans []qtrace.Span
}

func (m ShardsReply) Append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.CSRs)))
	for _, c := range m.CSRs {
		b = appendU32s(b, c.InOff)
		b = appendNodes(b, c.InDst)
		b = appendU32s(b, c.OutOff)
		b = appendNodes(b, c.OutDst)
	}
	if len(m.Spans) > 0 {
		b = appendSpansTrailer(b, m.Spans)
	}
	return b
}

func DecodeShardsReply(b []byte) (ShardsReply, error) {
	d := dec{b: b}
	n := d.u32()
	// Each block is at least 16 bytes (four empty arrays), so a hostile
	// count cannot allocate past the payload.
	if d.err == nil && len(d.b) < 16*int(n) {
		return ShardsReply{}, fmt.Errorf("rpcwire: truncated shards reply")
	}
	m := ShardsReply{CSRs: make([]graph.CSRShard, 0, n)}
	for i := uint32(0); i < n; i++ {
		m.CSRs = append(m.CSRs, graph.CSRShard{
			InOff:  d.u32s(),
			InDst:  d.nodes(),
			OutOff: d.u32s(),
			OutDst: d.nodes(),
		})
	}
	if d.err == nil {
		m.Spans = parseSpans(d.b)
	}
	return m, d.err
}

// ApplyRequest carries a batch of edge mutations, applied atomically
// (all-or-rollback) on the worker. Batch is the router-assigned batch
// id: a worker applies each id at most once (retries after a lost reply
// are no-ops) and logs it to its write-ahead log before applying when
// durability is on. Batch 0 means un-identified (the worker assigns
// the next id itself); such batches are not retry-safe. The reply is a MetaReply
// with the worker's post-apply (unpublished) version and watermark.
type ApplyRequest struct {
	Budget budget.Header
	Batch  uint64
	Ops    []graph.EdgeOp
	// Trace, when non-nil, ties this request to a sampled caller-side
	// trace (optional trailer; old workers ignore it).
	Trace *TraceContext
}

func (m ApplyRequest) Append(b []byte) []byte {
	b = m.Budget.AppendBinary(b)
	b = binary.LittleEndian.AppendUint64(b, m.Batch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Ops)))
	for _, op := range m.Ops {
		k := byte(0)
		if op.Remove {
			k = 1
		}
		b = append(b, k)
		b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.V))
	}
	if m.Trace != nil {
		b = appendTraceTrailer(b, *m.Trace)
	}
	return b
}

func DecodeApplyRequest(b []byte) (ApplyRequest, error) {
	h, rest, err := budget.DecodeHeader(b)
	if err != nil {
		return ApplyRequest{}, err
	}
	d := dec{b: rest}
	batch := d.u64()
	n := d.u32()
	if d.err == nil && len(d.b) < 9*int(n) {
		return ApplyRequest{}, fmt.Errorf("rpcwire: truncated op array")
	}
	m := ApplyRequest{Budget: h, Batch: batch, Ops: make([]graph.EdgeOp, 0, n)}
	for i := uint32(0); i < n; i++ {
		k := d.u8()
		if d.err == nil && k > 1 {
			return ApplyRequest{}, fmt.Errorf("rpcwire: op %d kind %d", i, k)
		}
		u := graph.NodeID(int32(d.u32()))
		v := graph.NodeID(int32(d.u32()))
		m.Ops = append(m.Ops, graph.EdgeOp{Remove: k == 1, U: u, V: v})
	}
	if d.err == nil {
		m.Trace = parseTrace(d.b)
	}
	return m, d.err
}

// PingRequest asks an engine for its version and durable watermark: the
// health-loop and replica catch-up probe. Unlike TMeta it does not pin a
// snapshot generation and carries no ownership list, so it stays cheap
// enough to fire every health tick against every fleet member.
type PingRequest struct {
	Budget budget.Header
}

func (m PingRequest) Append(b []byte) []byte { return m.Budget.AppendBinary(b) }

func DecodePingRequest(b []byte) (PingRequest, error) {
	h, rest, err := budget.DecodeHeader(b)
	if err != nil {
		return PingRequest{}, err
	}
	if len(rest) != 0 {
		return PingRequest{}, fmt.Errorf("rpcwire: %d trailing bytes in ping request", len(rest))
	}
	return PingRequest{Budget: h}, nil
}

// PingReply reports the published snapshot version and the durable
// apply-once watermark. The router's health loop uses the pair to decide
// demotion, re-admission and how far a recovering replica must be caught
// up from the replay ring.
type PingReply struct {
	Version   uint64
	LastBatch uint64
}

func (m PingReply) Append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, m.Version)
	return binary.LittleEndian.AppendUint64(b, m.LastBatch)
}

func DecodePingReply(b []byte) (PingReply, error) {
	d := dec{b: b}
	m := PingReply{Version: d.u64(), LastBatch: d.u64()}
	return m, d.err
}

// ErrorReply reports a handler failure.
type ErrorReply struct {
	Code uint8
	Msg  string
}

func (m ErrorReply) Append(b []byte) []byte {
	b = append(b, m.Code)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Msg)))
	return append(b, m.Msg...)
}

func DecodeErrorReply(b []byte) (ErrorReply, error) {
	d := dec{b: b}
	m := ErrorReply{Code: d.u8(), Msg: d.str()}
	return m, d.err
}
