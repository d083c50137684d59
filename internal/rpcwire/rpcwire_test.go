package rpcwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello shard plane")
	if err := WriteFrame(&buf, TShards, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TShards || !bytes.Equal(got, payload) {
		t.Fatalf("got type %d payload %q", typ, got)
	}
}

func TestFrameReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TMeta, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 64)
	_, got, err := ReadFrame(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[0] {
		t.Fatal("large scratch buffer was not reused")
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrame)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame accepted: %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TMeta, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(short), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	req := MetaRequest{Budget: budget.Header{Remaining: 250 * time.Millisecond, MaxWalks: 7, MaxWork: 9}}
	got, err := DecodeMetaRequest(req.Append(nil))
	if err != nil || got != req {
		t.Fatalf("meta request: %+v err %v", got, err)
	}
	rep := MetaReply{Nodes: 1000, Edges: 5000, Version: 42, Shift: 6, Shards: 16, Owned: []uint32{0, 2, 4}}
	versioned := rep
	versioned.ShardVersions = []uint64{40, 7, 42}
	for _, want := range []MetaReply{rep, versioned} {
		gotRep, err := DecodeMetaReply(want.Append(nil))
		if err != nil || !reflect.DeepEqual(gotRep, want) {
			t.Fatalf("meta reply: %+v err %v", gotRep, err)
		}
	}
	// A reply with spans (a traced TApply's) keeps only them: no message
	// carries two trailers.
	versioned.Spans = testSpans
	gotRep, err := DecodeMetaReply(versioned.Append(nil))
	if err != nil || !reflect.DeepEqual(gotRep.Spans, testSpans) || gotRep.ShardVersions != nil {
		t.Fatalf("meta reply with spans and versions: %+v err %v, want the spans alone", gotRep, err)
	}
}

// testSpans is a worker span tree as it travels back on a traced reply.
var testSpans = []qtrace.Span{
	{ID: 1, Parent: 0, Start: 10, End: 20, Name: "worker.apply", Attrs: "batch=1,ops=2"},
	{ID: 2, Parent: 1, Start: 12, End: 18, Name: "store.apply"},
}

func TestShardRoundTrip(t *testing.T) {
	for _, tc := range []*TraceContext{nil, {Hi: 0xA, Lo: 0xB, Parent: 3}} {
		req := ShardsRequest{Budget: budget.Header{Remaining: time.Second}, Version: 7, Shards: []uint32{3, 5}, Trace: tc}
		got, err := DecodeShardsRequest(req.Append(nil))
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("shards request: %+v err %v, want %+v", got, err, req)
		}
	}
	rep := ShardsReply{CSRs: []graph.CSRShard{{
		InOff:  []uint32{0, 1, 3},
		InDst:  []graph.NodeID{5, 6, 7},
		OutOff: []uint32{0, 0, 2},
		OutDst: []graph.NodeID{1, 2},
	}, {
		InOff: []uint32{0}, InDst: []graph.NodeID{}, OutOff: []uint32{0}, OutDst: []graph.NodeID{},
	}}}
	for _, spans := range [][]qtrace.Span{nil, testSpans} {
		rep.Spans = spans
		gotRep, err := DecodeShardsReply(rep.Append(nil))
		if err != nil || !reflect.DeepEqual(gotRep, rep) {
			t.Fatalf("shards reply: %+v err %v, want %+v", gotRep, err, rep)
		}
	}
}

func TestApplyRoundTrip(t *testing.T) {
	req := ApplyRequest{Ops: []graph.EdgeOp{{U: 1, V: 2}, {Remove: true, U: 3, V: 4}}}
	got, err := DecodeApplyRequest(req.Append(nil))
	if err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("apply request: %+v err %v", got, err)
	}
}

func TestPingRoundTrip(t *testing.T) {
	req := PingRequest{Budget: budget.Header{Remaining: 80 * time.Millisecond}}
	got, err := DecodePingRequest(req.Append(nil))
	if err != nil || got != req {
		t.Fatalf("ping request: %+v err %v", got, err)
	}
	if _, err := DecodePingRequest(append(req.Append(nil), 0)); err == nil {
		t.Fatal("ping request with trailing bytes accepted")
	}
	rep := PingReply{Version: 11, LastBatch: 42}
	gotRep, err := DecodePingReply(rep.Append(nil))
	if err != nil || gotRep != rep {
		t.Fatalf("ping reply: %+v err %v", gotRep, err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	rep := ErrorReply{Code: CodeRetiredGen, Msg: "generation 41 retired"}
	got, err := DecodeErrorReply(rep.Append(nil))
	if err != nil || got != rep {
		t.Fatalf("error reply: %+v err %v", got, err)
	}
}

// Every byte of a trailer-free message is a fixed field, so any
// truncation must fail to decode rather than yield a shorter message.
func TestTruncatedPayloadsRejected(t *testing.T) {
	h := budget.Header{Remaining: time.Second, MaxWalks: 3}
	for _, m := range []struct {
		name   string
		full   []byte
		decode func([]byte) error
	}{
		{"ShardsRequest", ShardsRequest{Budget: h, Version: 4, Shards: []uint32{0, 2}}.Append(nil),
			func(b []byte) error { _, err := DecodeShardsRequest(b); return err }},
		{"ShardsReply", ShardsReply{CSRs: []graph.CSRShard{{
			InOff: []uint32{0, 2}, InDst: []graph.NodeID{1, 2}, OutOff: []uint32{0, 0}, OutDst: nil,
		}}}.Append(nil),
			func(b []byte) error { _, err := DecodeShardsReply(b); return err }},
		{"ApplyRequest", ApplyRequest{Budget: h, Batch: 4, Ops: []graph.EdgeOp{{U: 1, V: 2}, {Remove: true, U: 3, V: 4}}}.Append(nil),
			func(b []byte) error { _, err := DecodeApplyRequest(b); return err }},
	} {
		for cut := 0; cut < len(m.full); cut++ {
			if err := m.decode(m.full[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d of %d accepted", m.name, cut, len(m.full))
			}
		}
	}
}
