package router

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/qtrace"
	"probesim/internal/rpcwire"
)

// Server serves a ShardEngine over the rpcwire protocol: the process
// body of a probesim-shardd worker. Each connection handles one request
// at a time (clients open more connections for concurrency); requests
// run under a context derived from the propagated budget header, so a
// deadline that expired on the router bounds the worker-side work too.
type Server struct {
	eng ShardEngine

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Logf, when set, receives per-connection failures (protocol errors,
	// I/O); nil means silent. Set it before Serve.
	Logf func(format string, args ...any)

	// tracer, when set, owns the worker's slow-query log and completed-
	// trace ring. Swappable at runtime (SetTracer), read per request.
	tracer atomic.Pointer[qtrace.Tracer]

	// requests counts every dispatched frame: how tests assert how many
	// round trips a query cost.
	requests atomic.Int64
}

// Requests reports how many request frames the server has dispatched.
func (s *Server) Requests() int64 { return s.requests.Load() }

// SetTracer arms (or, with nil, disarms) the worker-side tracer: traced
// requests record spans and return them on the reply either way; the
// tracer adds the worker's own slow-query log, local sampling of
// untraced requests, and the /debug/queries ring.
func (s *Server) SetTracer(t *qtrace.Tracer) { s.tracer.Store(t) }

// NewServer wraps eng for serving.
func NewServer(eng ShardEngine) *Server {
	return &Server{eng: eng, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close. It returns nil after
// Close and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("router: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Close stops accepting, severs every open connection and waits for the
// handlers to drain. Used both for shutdown and by fault-injection tests
// to kill a worker mid-query.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var inBuf, outBuf []byte
	for {
		typ, payload, err := rpcwire.ReadFrame(br, inBuf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("router: %s: read: %v", c.RemoteAddr(), err)
			}
			return
		}
		inBuf = payload
		rtyp, body := s.dispatch(typ, payload, outBuf[:0])
		outBuf = body
		if err := rpcwire.WriteFrame(bw, rtyp, body); err != nil {
			s.logf("router: %s: write: %v", c.RemoteAddr(), err)
			return
		}
		if err := bw.Flush(); err != nil {
			s.logf("router: %s: flush: %v", c.RemoteAddr(), err)
			return
		}
	}
}

// dispatch handles one request frame and encodes the reply into out.
func (s *Server) dispatch(typ uint8, payload, out []byte) (uint8, []byte) {
	s.requests.Add(1)
	fail := func(code uint8, err error) (uint8, []byte) {
		if errors.Is(err, ErrRetiredGeneration) {
			code = rpcwire.CodeRetiredGen
		}
		if errors.Is(err, ErrUnavailable) {
			code = rpcwire.CodeUnavailable
		}
		return rpcwire.TErr, rpcwire.ErrorReply{Code: code, Msg: err.Error()}.Append(out)
	}
	metaReply := func(m Meta, spans []qtrace.Span) (uint8, []byte) {
		rep := rpcwire.MetaReply{
			Nodes:     uint64(m.Nodes),
			Edges:     uint64(m.Edges),
			Version:   m.Version,
			LastBatch: m.LastBatch,
			Shift:     m.Shift,
			Shards:    uint32(m.Shards),
			Owned:     make([]uint32, len(m.Owned)),
			Spans:     spans,
			// Set only on TMeta/TPublish: an Apply's Meta carries no
			// shard list, so its reply keeps just the span trailer.
			ShardVersions: m.ShardVersions,
		}
		for i, p := range m.Owned {
			rep.Owned[i] = uint32(p)
		}
		return rpcwire.TMetaRep, rep.Append(out)
	}
	switch typ {
	case rpcwire.TMeta:
		if _, err := rpcwire.DecodeMetaRequest(payload); err != nil {
			return fail(rpcwire.CodeBadRequest, err)
		}
		m, err := s.eng.Meta(context.Background())
		if err != nil {
			return fail(rpcwire.CodeInternal, err)
		}
		return metaReply(m, nil)

	case rpcwire.TShards:
		req, err := rpcwire.DecodeShardsRequest(payload)
		if err != nil {
			return fail(rpcwire.CodeBadRequest, err)
		}
		tr, root, finish := s.traceFor(req.Trace, "worker.resolve_shards")
		tr.Annotate(root, fmt.Sprintf("shards=%d", len(req.Shards)))
		ctx, cancel := headerCtx(req.Budget.Remaining)
		defer cancel()
		ps := make([]int, len(req.Shards))
		for i, p := range req.Shards {
			ps[i] = int(p)
		}
		csrs, err := s.eng.ResolveShards(qtrace.NewContext(ctx, tr, root), req.Version, ps)
		spans := finish(err)
		if err != nil {
			return fail(rpcwire.CodeInternal, err)
		}
		return rpcwire.TShardsRep, rpcwire.ShardsReply{CSRs: csrs, Spans: spans}.Append(out)

	case rpcwire.TApply:
		req, err := rpcwire.DecodeApplyRequest(payload)
		if err != nil {
			return fail(rpcwire.CodeBadRequest, err)
		}
		tr, root, finish := s.traceFor(req.Trace, "worker.apply")
		tr.Annotate(root, fmt.Sprintf("batch=%d,ops=%d", req.Batch, len(req.Ops)))
		ctx, cancel := headerCtx(req.Budget.Remaining)
		defer cancel()
		version, err := s.eng.Apply(qtrace.NewContext(ctx, tr, root), req.Batch, req.Ops)
		spans := finish(err)
		if err != nil {
			return fail(rpcwire.CodeInternal, err)
		}
		return metaReply(Meta{Version: version, LastBatch: req.Batch}, spans)

	case rpcwire.TPing:
		if _, err := rpcwire.DecodePingRequest(payload); err != nil {
			return fail(rpcwire.CodeBadRequest, err)
		}
		version, lastBatch, err := s.eng.Ping(context.Background())
		if err != nil {
			return fail(rpcwire.CodeInternal, err)
		}
		return rpcwire.TPingRep, rpcwire.PingReply{Version: version, LastBatch: lastBatch}.Append(out)

	case rpcwire.TPublish:
		req, err := rpcwire.DecodeMetaRequest(payload)
		if err != nil {
			return fail(rpcwire.CodeBadRequest, err)
		}
		ctx, cancel := headerCtx(req.Budget.Remaining)
		defer cancel()
		m, err := s.eng.Publish(ctx)
		if err != nil {
			return fail(rpcwire.CodeInternal, err)
		}
		return metaReply(m, nil)

	default:
		return fail(rpcwire.CodeBadRequest, fmt.Errorf("router: unknown request type %d", typ))
	}
}

// traceFor starts the worker-side trace for one request. A request
// carrying a trace context is always recorded under the caller's 128-bit
// id — the router made the sampling decision — and its spans travel back
// on the reply to be grafted into the caller's trace. A request without
// one may still be sampled by the worker's own tracer (local visibility
// only). The returned finish closes the root span, files the trace with
// the tracer, and returns the spans to put on the wire (nil for
// locally-sampled requests). All return values are safe to use when the
// request ends up untraced (tr nil, finish returns nil).
func (s *Server) traceFor(tc *rpcwire.TraceContext, op string) (tr *qtrace.Trace, root qtrace.SpanRef, finish func(error) []qtrace.Span) {
	tcr := s.tracer.Load()
	var id qtrace.TraceID
	wire := false
	switch {
	case tc != nil:
		id = qtrace.TraceID{Hi: tc.Hi, Lo: tc.Lo}
		tr = qtrace.New(id)
		wire = true
	case tcr != nil:
		id = qtrace.NewID()
		tr = tcr.Begin(id, false)
	}
	if tr == nil {
		return nil, 0, func(error) []qtrace.Span { return nil }
	}
	start := time.Now()
	root = tr.StartSpan(op, 0)
	finish = func(err error) []qtrace.Span {
		status := 0
		if err != nil {
			status = 1
			tr.EndSpanAnnot(root, "outcome=error")
		} else {
			tr.EndSpan(root)
		}
		if tcr != nil {
			tcr.Finish(tr, id, op, status, start, time.Since(start))
		}
		if wire {
			return tr.Snapshot()
		}
		return nil
	}
	return tr, root, finish
}

// headerCtx turns a propagated remaining-deadline into a request context.
func headerCtx(remaining time.Duration) (context.Context, context.CancelFunc) {
	if remaining > 0 {
		return context.WithTimeout(context.Background(), remaining)
	}
	return context.Background(), func() {}
}

// ListenAndServe serves eng on addr until the server is closed. It logs
// through the standard logger; cmd/probesim-shardd wraps it.
func ListenAndServe(addr string, eng ShardEngine) (*Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	s := NewServer(eng)
	s.Logf = log.Printf
	go func() {
		if err := s.Serve(ln); err != nil {
			log.Printf("router: serve: %v", err)
		}
	}()
	return s, ln, nil
}
