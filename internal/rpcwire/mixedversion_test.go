package rpcwire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
)

// The trailer scheme's compatibility claim is that a peer whose decoder
// predates a trailer still reads every fixed field it knows, and that a
// message without trailers is byte-for-byte the fixed encoding such a
// peer has always read:
//
//   - router → worker that predates the trace trailer: an unsampled
//     query's requests are exactly the fixed form, and a sampled one's
//     decode to the same fixed fields with one trailer left over;
//   - worker → router that predates the span trailer: replies to
//     untraced requests carry no spans and are exactly the fixed form,
//     and traced replies keep the fixed form as their prefix.
//
// These tests pin both directions against hand-rolled fixed-field
// encoders and decoders.

func testHeader() budget.Header {
	return budget.Header{Remaining: time.Second, MaxWalks: 100, MaxWork: 1000}
}

func fixedShardsRequestBytes(m ShardsRequest) []byte {
	b := m.Budget.AppendBinary(nil)
	b = binary.LittleEndian.AppendUint64(b, m.Version)
	return appendU32s(b, m.Shards)
}

func fixedWalkBatchRequestBytes(m WalkBatchRequest) []byte {
	b := m.Budget.AppendBinary(nil)
	b = binary.LittleEndian.AppendUint64(b, m.Version)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.SqrtC))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Walks)))
	for _, w := range m.Walks {
		b = binary.LittleEndian.AppendUint32(b, uint32(w.Cur))
		b = binary.LittleEndian.AppendUint64(b, w.State)
		b = binary.LittleEndian.AppendUint32(b, w.Room)
	}
	return b
}

func fixedApplyRequestBytes(m ApplyRequest) []byte {
	b := m.Budget.AppendBinary(nil)
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
	return b
}

func fixedMetaReplyBytes(m MetaReply) []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.Nodes)
	b = binary.LittleEndian.AppendUint64(b, m.Edges)
	b = binary.LittleEndian.AppendUint64(b, m.Version)
	b = binary.LittleEndian.AppendUint64(b, m.LastBatch)
	b = binary.LittleEndian.AppendUint32(b, m.Shift)
	b = binary.LittleEndian.AppendUint32(b, m.Shards)
	return appendU32s(b, m.Owned)
}

func fixedShardsReplyBytes(m ShardsReply) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(m.CSRs)))
	for _, c := range m.CSRs {
		b = appendU32s(b, c.InOff)
		b = appendNodes(b, c.InDst)
		b = appendU32s(b, c.OutOff)
		b = appendNodes(b, c.OutDst)
	}
	return b
}

func fixedWalkBatchReplyBytes(m WalkBatchReply) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(m.Segs)))
	for _, s := range m.Segs {
		b = binary.LittleEndian.AppendUint64(b, s.State)
		b = append(b, s.Status)
		b = appendNodes(b, s.Nodes)
	}
	return b
}

// An unsampled query's requests carry no trace field, so they are
// byte-identical to the fixed wire form a trailer-unaware worker decodes.
func TestNewRouterOldWorkerRequestsBitIdentical(t *testing.T) {
	sr := ShardsRequest{Budget: testHeader(), Version: 7, Shards: []uint32{3, 5}}
	if got, want := sr.Append(nil), fixedShardsRequestBytes(sr); !bytes.Equal(got, want) {
		t.Fatalf("traceless ShardsRequest differs from the fixed form:\n got %x\nwant %x", got, want)
	}
	wr := WalkBatchRequest{Budget: testHeader(), Version: 7, SqrtC: 0.8,
		Walks: []WalkStart{{Cur: 42, State: 0xDEADBEEF, Room: 16}, {Cur: 1, State: 2, Room: 3}}}
	if got, want := wr.Append(nil), fixedWalkBatchRequestBytes(wr); !bytes.Equal(got, want) {
		t.Fatalf("traceless WalkBatchRequest differs from the fixed form:\n got %x\nwant %x", got, want)
	}
	ar := ApplyRequest{Budget: testHeader(), Batch: 9, Ops: []Op{{U: 1, V: 2}, {Remove: true, U: 3, V: 4}}}
	if got, want := ar.Append(nil), fixedApplyRequestBytes(ar); !bytes.Equal(got, want) {
		t.Fatalf("traceless ApplyRequest differs from the fixed form:\n got %x\nwant %x", got, want)
	}
}

// A sampled query's requests carry a trace trailer that a trailer-unaware
// decoder (fixed fields, then stop) never reaches: it decodes the same
// fixed fields, with exactly one trace trailer left over.
func TestOldWorkerDecodesTracedRequests(t *testing.T) {
	tc := &TraceContext{Hi: 0x1111, Lo: 0x2222, Parent: 5}
	sr := ShardsRequest{Budget: testHeader(), Version: 7, Shards: []uint32{3, 5}, Trace: tc}
	h, rest, err := budget.DecodeHeader(sr.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	d := dec{b: rest}
	old := ShardsRequest{Budget: h, Version: d.u64(), Shards: d.u32s()}
	if d.err != nil {
		t.Fatal(d.err)
	}
	if old.Budget != sr.Budget || old.Version != sr.Version || !reflect.DeepEqual(old.Shards, sr.Shards) {
		t.Fatalf("fixed-field decode mangled the shards request: %+v", old)
	}
	if len(d.b) != 8+traceContextSize {
		t.Fatalf("expected exactly one trace trailer after the fixed fields, %d bytes left", len(d.b))
	}

	wr := WalkBatchRequest{Budget: testHeader(), Version: 7, SqrtC: 0.8,
		Walks: []WalkStart{{Cur: 42, State: 0xDEADBEEF, Room: 16}}, Trace: tc}
	b := wr.Append(nil)
	fixed := fixedWalkBatchRequestBytes(wr)
	if !bytes.HasPrefix(b, fixed) || len(b) != len(fixed)+8+traceContextSize {
		t.Fatalf("traced WalkBatchRequest is not its fixed form plus one trace trailer:\n got %x\nfixed %x", b, fixed)
	}
}

// Replies to untraced requests carry no spans and are byte-identical to
// the fixed form; traced replies keep that fixed form as their prefix, so
// a trailer-unaware router reads the same fields either way.
func TestOldRouterNewWorkerRepliesBitIdentical(t *testing.T) {
	sr, err := DecodeShardsRequest(fixedShardsRequestBytes(ShardsRequest{Budget: testHeader(), Version: 1, Shards: []uint32{0}}))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Trace != nil {
		t.Fatal("fixed-form request decoded with a trace context")
	}

	shardsRep := ShardsReply{CSRs: []graph.CSRShard{{
		InOff: []uint32{0, 1}, InDst: []graph.NodeID{4},
		OutOff: []uint32{0, 2}, OutDst: []graph.NodeID{5, 6},
	}}}
	walkRep := WalkBatchReply{Segs: []WalkSegmentResult{{State: 77, Status: WalkEnded, Nodes: []graph.NodeID{1, 2, 3}}}}
	meta := MetaReply{Nodes: 10, Edges: 20, Version: 3, LastBatch: 4, Shift: 2, Shards: 4, Owned: []uint32{0, 2}}
	for _, c := range []struct {
		name        string
		got, fixed  []byte
		traced      []byte
		decodeFixed func([]byte) error
	}{
		{"ShardsReply", shardsRep.Append(nil), fixedShardsReplyBytes(shardsRep),
			ShardsReply{CSRs: shardsRep.CSRs, Spans: testSpans}.Append(nil),
			func(b []byte) error { _, err := DecodeShardsReply(b); return err }},
		{"WalkBatchReply", walkRep.Append(nil), fixedWalkBatchReplyBytes(walkRep),
			WalkBatchReply{Segs: walkRep.Segs, Spans: testSpans}.Append(nil),
			func(b []byte) error { _, err := DecodeWalkBatchReply(b); return err }},
		{"MetaReply", meta.Append(nil), fixedMetaReplyBytes(meta),
			MetaReply{Nodes: meta.Nodes, Edges: meta.Edges, Version: meta.Version, LastBatch: meta.LastBatch,
				Shift: meta.Shift, Shards: meta.Shards, Owned: meta.Owned, Spans: testSpans}.Append(nil),
			func(b []byte) error { _, err := DecodeMetaReply(b); return err }},
	} {
		if !bytes.Equal(c.got, c.fixed) {
			t.Fatalf("span-free %s differs from the fixed form:\n got %x\nwant %x", c.name, c.got, c.fixed)
		}
		if !bytes.HasPrefix(c.traced, c.fixed) {
			t.Fatalf("traced %s changed the fixed prefix:\n got %x\nwant prefix %x", c.name, c.traced, c.fixed)
		}
		if err := c.decodeFixed(c.fixed); err != nil {
			t.Fatalf("fixed-form %s: %v", c.name, err)
		}
	}
}

// The write plane's trailers round-trip exactly: a traced ApplyRequest
// keeps its trace context and the MetaReply answering it keeps the
// worker's spans. (The query-path messages' trailers are covered by
// TestShardRoundTrip and TestWalkRoundTrip.)
func TestTracedRoundTrip(t *testing.T) {
	tc := &TraceContext{Hi: 0xA, Lo: 0xB, Parent: 3}
	ar, err := DecodeApplyRequest(ApplyRequest{Budget: testHeader(), Batch: 1, Ops: []Op{{U: 1, V: 2}}, Trace: tc}.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Trace == nil || *ar.Trace != *tc {
		t.Fatalf("trace context mangled: %+v", ar.Trace)
	}

	spans := []qtrace.Span{
		{ID: 1, Parent: 0, Start: 10, End: 20, Name: "worker.apply", Attrs: "batch=1,ops=1"},
		{ID: 2, Parent: 1, Start: 12, End: 18, Name: "store.apply"},
	}
	rep, err := DecodeMetaReply(MetaReply{Version: 5, LastBatch: 1, Spans: spans}.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Spans, spans) {
		t.Fatalf("spans mangled:\n got %+v\nwant %+v", rep.Spans, spans)
	}
}
