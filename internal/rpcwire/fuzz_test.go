package rpcwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
)

// FuzzReadFrame: arbitrary bytes through the frame reader must error or
// parse — never panic, and never allocate far beyond the bytes actually
// provided (a lying length prefix is the classic way to let one packet
// demand a gigabyte).
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, byte(TMeta)})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, byte(TWalkBatch)}) // huge claimed length
	var ok bytes.Buffer
	WriteFrame(&ok, TShards, []byte("payload"))
	f.Add(ok.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		// A parsed frame must be reconstructible from the input.
		if len(data) < 5+len(payload) {
			t.Fatalf("frame of %d payload bytes out of %d input bytes", len(payload), len(data))
		}
		if data[4] != typ {
			t.Fatalf("type %d, header byte %d", typ, data[4])
		}
		if !bytes.Equal(payload, data[5:5+len(payload)]) {
			t.Fatal("payload does not match input")
		}
		// Cap check: for a frame the input could not back, ReadFrame must
		// have failed above rather than allocating the claimed size.
		if cap(payload) > len(data)+frameChunk {
			t.Fatalf("allocated %d bytes for %d input bytes", cap(payload), len(data))
		}
	})
}

// FuzzReadFrameTruncated drives the chunked large-frame path directly: a
// header claiming up to MaxFrame over a short body must fail with a read
// error after at most one chunk of allocation.
func FuzzReadFrameTruncated(f *testing.F) {
	f.Add(uint32(frameChunk+1), []byte("short"))
	f.Add(uint32(MaxFrame-1), []byte{})
	f.Add(uint32(17), []byte("0123456789abcdef0"))
	f.Fuzz(func(t *testing.T, claim uint32, body []byte) {
		var in bytes.Buffer
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:4], claim)
		hdr[4] = byte(TWalkBatch)
		in.Write(hdr[:])
		in.Write(body)
		_, payload, err := ReadFrame(&in, nil)
		if int(claim) < MaxFrame && int(claim) <= len(body) {
			if err != nil {
				t.Fatalf("backed frame failed: %v", err)
			}
			return
		}
		if err == nil {
			t.Fatalf("claim %d over %d body bytes parsed", claim, len(body))
		}
		if cap(payload) > len(body)+frameChunk {
			t.Fatalf("allocated %d for %d body bytes", cap(payload), len(body))
		}
	})
}

// fuzzDecoders runs every message decoder over the same corrupt input;
// none may panic, and any message that decodes must re-encode and decode
// to the same value (round-trip stability is what the wire peers rely
// on).
func FuzzDecodeMessages(f *testing.F) {
	h := budget.Header{Remaining: 1234, MaxWalks: 5, MaxWork: 6}
	f.Add(MetaRequest{Budget: h}.Append(nil))
	f.Add(MetaReply{Nodes: 10, Edges: 20, Version: 3, LastBatch: 7, Shift: 4, Shards: 2, Owned: []uint32{0, 1}}.Append(nil))
	csr := graph.CSRShard{InOff: []uint32{0, 1}, InDst: []graph.NodeID{3}, OutOff: []uint32{0, 0}}
	walks := []WalkStart{{Cur: 5, State: 42, Room: 8}, {Cur: 6, State: 43, Room: 2}}
	segs := []WalkSegmentResult{{State: 9, Status: WalkHandoff, Nodes: []graph.NodeID{1, 2}}, {State: 10, Status: WalkEnded}}
	f.Add(ShardsRequest{Budget: h, Version: 9, Shards: []uint32{1, 3}}.Append(nil))
	f.Add(ShardsReply{CSRs: []graph.CSRShard{csr, csr}}.Append(nil))
	f.Add(WalkBatchRequest{Budget: h, Version: 2, SqrtC: 0.77, Walks: walks}.Append(nil))
	f.Add(WalkBatchReply{Segs: segs}.Append(nil))
	f.Add(ApplyRequest{Budget: h, Batch: 11, Ops: []Op{{U: 1, V: 2}, {Remove: true, U: 3, V: 4}}}.Append(nil))
	f.Add(ErrorReply{Code: CodeRetiredGen, Msg: "gone"}.Append(nil))
	f.Add(PingRequest{Budget: h}.Append(nil))
	f.Add(PingReply{Version: 8, LastBatch: 13}.Append(nil))
	// The same messages carrying their trailers: a sampled query's trace
	// context on requests, recorded worker spans on replies.
	tc := &TraceContext{Hi: 1, Lo: 2, Parent: 3}
	spans := []qtrace.Span{{ID: 1, Start: 4, End: 9, Name: "worker.walk_batch", Attrs: "walks=2"}, {ID: 2, Parent: 1, Name: "walk.steps"}}
	f.Add(ShardsRequest{Budget: h, Version: 9, Shards: []uint32{1}, Trace: tc}.Append(nil))
	f.Add(ShardsReply{CSRs: []graph.CSRShard{csr}, Spans: spans}.Append(nil))
	f.Add(WalkBatchRequest{Budget: h, Version: 2, SqrtC: 0.77, Walks: walks[:1], Trace: tc}.Append(nil))
	f.Add(WalkBatchReply{Segs: segs[:1], Spans: spans}.Append(nil))
	f.Add(ApplyRequest{Budget: h, Batch: 12, Ops: []Op{{U: 1, V: 2}}, Trace: tc}.Append(nil))
	f.Add(MetaReply{Nodes: 10, Version: 4, LastBatch: 12, Shards: 1, Owned: []uint32{0}, Spans: spans}.Append(nil))
	// A reply whose spans follow a trace trailer it never carries: the
	// decoder must ignore both, or the re-encoded reply is no prefix.
	f.Add(appendSpansTrailer(appendTraceTrailer(ShardsReply{CSRs: []graph.CSRShard{csr}}.Append(nil), *tc), spans))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeMetaRequest(data); err == nil {
			// MetaRequest rejects trailing bytes, so a successful decode
			// must re-encode to exactly the input.
			if out := m.Append(nil); !bytes.Equal(out, data) {
				t.Fatalf("MetaRequest: decode/encode changed %x -> %x", data, out)
			}
		}
		// The remaining decoders tolerate trailing bytes (the dec cursor
		// stops where the message ends): a successful decode must
		// re-encode to a PREFIX of the input. WalkBatchRequest is excluded
		// from the prefix check only because float64 NaN payloads need not
		// survive a value round trip bit for bit; it still must not panic.
		prefix := func(what string, out []byte) {
			if !bytes.HasPrefix(data, out) {
				t.Fatalf("%s: re-encoded %x is not a prefix of input %x", what, out, data)
			}
		}
		if m, err := DecodeMetaReply(data); err == nil {
			prefix("MetaReply", m.Append(nil))
		}
		if m, err := DecodeShardsRequest(data); err == nil {
			prefix("ShardsRequest", m.Append(nil))
		}
		if m, err := DecodeShardsReply(data); err == nil {
			prefix("ShardsReply", m.Append(nil))
		}
		DecodeWalkBatchRequest(data)
		if m, err := DecodeWalkBatchReply(data); err == nil {
			prefix("WalkBatchReply", m.Append(nil))
		}
		if m, err := DecodeApplyRequest(data); err == nil {
			prefix("ApplyRequest", m.Append(nil))
		}
		if m, err := DecodeErrorReply(data); err == nil {
			prefix("ErrorReply", m.Append(nil))
		}
		if m, err := DecodePingRequest(data); err == nil {
			// PingRequest rejects trailing bytes like MetaRequest.
			if out := m.Append(nil); !bytes.Equal(out, data) {
				t.Fatalf("PingRequest: decode/encode changed %x -> %x", data, out)
			}
		}
		if m, err := DecodePingReply(data); err == nil {
			prefix("PingReply", m.Append(nil))
		}
	})
}

// FuzzWriteReadFrame: anything written must read back identically.
func FuzzWriteReadFrame(f *testing.F) {
	f.Add(uint8(TMeta), []byte{})
	f.Add(uint8(TErr), []byte("error payload"))
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			if len(payload) >= MaxFrame {
				return
			}
			t.Fatal(err)
		}
		gtyp, gp, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gtyp != typ || !bytes.Equal(gp, payload) {
			t.Fatalf("round trip changed frame: %d/%x -> %d/%x", typ, payload, gtyp, gp)
		}
		if _, _, err := ReadFrame(&buf, nil); err != io.EOF {
			t.Fatalf("trailing read: %v", err)
		}
	})
}
