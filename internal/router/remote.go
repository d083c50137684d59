package router

import (
	"bufio"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
	"probesim/internal/rpcwire"
)

// Remote transport tuning. The call timeout is a ceiling for requests
// whose query carries no deadline of its own; queries with deadlines are
// bounded by the earlier of the two, so a worker death mid-query always
// surfaces within the query deadline.
const (
	remoteDialTimeout = 2 * time.Second
	remoteCallTimeout = 10 * time.Second
	remoteIdleConns   = 4
	backoffBase       = 50 * time.Millisecond
	backoffMax        = 2 * time.Second
)

// RemoteEngine is a ShardEngine served by a probesim-shardd worker over
// TCP. Connections are dialed lazily, pooled (one in-flight request per
// connection; concurrent callers each take their own), and re-dialed
// with exponential backoff after a failure: while the worker is down,
// calls inside the backoff window fail fast instead of queueing dials
// behind a dead address.
type RemoteEngine struct {
	addr string

	mu      sync.Mutex
	idle    []*remoteConn
	down    bool
	retryAt time.Time
	backoff time.Duration

	calls      atomic.Int64
	errs       atomic.Int64
	reconnects atomic.Int64
	healthy    atomic.Bool
	version    atomic.Uint64
	lastErr    atomic.Pointer[string]
	closed     atomic.Bool
}

type remoteConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// NewRemoteEngine returns an engine for the worker at addr
// (host:port). No connection is made until the first call.
func NewRemoteEngine(addr string) *RemoteEngine {
	e := &RemoteEngine{addr: addr, backoff: backoffBase}
	e.healthy.Store(true) // optimistic until a call says otherwise
	return e
}

// Addr returns the worker address.
func (e *RemoteEngine) Addr() string { return e.addr }

// Healthy reports whether the last call (or health check) succeeded.
func (e *RemoteEngine) Healthy() bool { return e.healthy.Load() }

// LastVersion returns the worker's last reported snapshot version.
func (e *RemoteEngine) LastVersion() uint64 { return e.version.Load() }

// Counters returns calls, transport errors and reconnects so far.
func (e *RemoteEngine) Counters() (calls, errs, reconnects int64) {
	return e.calls.Load(), e.errs.Load(), e.reconnects.Load()
}

// LastError returns the most recent transport error text, if any.
func (e *RemoteEngine) LastError() string {
	if s := e.lastErr.Load(); s != nil {
		return *s
	}
	return ""
}

func (e *RemoteEngine) transportErr(err error) error {
	e.errs.Add(1)
	e.healthy.Store(false)
	msg := err.Error()
	e.lastErr.Store(&msg)
	return fmt.Errorf("%w: %s: %v", ErrTransport, e.addr, err)
}

// markDown opens (or extends) the backoff window after a failure.
func (e *RemoteEngine) markDown() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down {
		e.backoff *= 2
		if e.backoff > backoffMax {
			e.backoff = backoffMax
		}
	} else {
		e.down = true
		e.backoff = backoffBase
	}
	// Jittered window: every router in the fleet notices a dead worker
	// within the same RPC timeout, so deterministic backoff would have
	// them all re-dial a restarting worker at the same instants
	// (thundering herd). Spread retries across [backoff/2, backoff].
	wait := e.backoff/2 + time.Duration(rand.Int64N(int64(e.backoff/2)+1))
	e.retryAt = time.Now().Add(wait)
	// Failed transport: every pooled connection is suspect.
	for _, rc := range e.idle {
		rc.c.Close()
	}
	e.idle = nil
}

func (e *RemoteEngine) markUp() {
	e.healthy.Store(true)
	e.mu.Lock()
	e.down = false
	e.backoff = backoffBase
	e.mu.Unlock()
}

// conn returns a pooled or freshly dialed connection, honoring the
// backoff window.
func (e *RemoteEngine) conn(ctx context.Context) (*remoteConn, error) {
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		rc := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		return rc, nil
	}
	if e.down {
		if wait := time.Until(e.retryAt); wait > 0 {
			e.mu.Unlock()
			return nil, fmt.Errorf("reconnect backoff for %v (last: %s)", wait.Round(time.Millisecond), e.LastError())
		}
	}
	e.mu.Unlock()
	d := net.Dialer{Timeout: remoteDialTimeout}
	c, err := d.DialContext(ctx, "tcp", e.addr)
	if err != nil {
		// A dial aborted by the caller's context says nothing about the
		// worker; only an actual refusal/timeout opens the backoff window.
		if ctx.Err() == nil {
			e.markDown()
		}
		return nil, err
	}
	e.reconnects.Add(1)
	return &remoteConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}, nil
}

// call performs one request/reply exchange. Any I/O failure closes the
// connection, opens the backoff window and returns an ErrTransport-
// wrapped error; an rpcwire.TErr reply is a semantic error from the
// worker and does not poison the transport.
func (e *RemoteEngine) call(ctx context.Context, typ uint8, payload []byte) (uint8, []byte, error) {
	if e.closed.Load() {
		return 0, nil, fmt.Errorf("%w: %s: engine closed", ErrTransport, e.addr)
	}
	e.calls.Add(1)
	rc, err := e.conn(ctx)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// The caller's context expired/canceled during the dial: that is
			// the query's failure, not the worker's — classify it as such
			// (so deadlines surface as 504, not 502) and leave the worker's
			// health alone.
			return 0, nil, fmt.Errorf("router: %s: %w", e.addr, cerr)
		}
		return 0, nil, e.transportErr(err)
	}
	deadline := time.Now().Add(remoteCallTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	rc.c.SetDeadline(deadline)
	// A cancelable-but-deadline-free context still needs prompt unblocking:
	// watch for cancellation and yank the deadline to the past. The main
	// path MUST join the watcher before it resets the deadline below: a
	// hedged read's cancel races the winner's completion, and a watcher
	// that fires after the exchange but before the reset would otherwise
	// leave an already-expired deadline on a connection headed for the
	// pool — every later borrower would fail instantly with a bogus
	// transport timeout. Joining first means any late yank is repaired by
	// the reset that follows it.
	watchStop := make(chan struct{})
	var watchExit chan struct{}
	if ctx.Done() != nil {
		watchExit = make(chan struct{})
		go func(c net.Conn) {
			defer close(watchExit)
			select {
			case <-ctx.Done():
				c.SetDeadline(time.Unix(1, 0))
			case <-watchStop:
			}
		}(rc.c)
	}
	rtyp, body, err := func() (uint8, []byte, error) {
		if err := rpcwire.WriteFrame(rc.bw, typ, payload); err != nil {
			return 0, nil, err
		}
		if err := rc.bw.Flush(); err != nil {
			return 0, nil, err
		}
		return rpcwire.ReadFrame(rc.br, nil)
	}()
	close(watchStop)
	if watchExit != nil {
		<-watchExit
	}
	if err != nil {
		// Mid-stream state is unusable either way.
		rc.c.Close()
		if cerr := ctx.Err(); cerr != nil {
			// The caller's deadline/cancellation cut the call short, not the
			// worker: preserve the context error chain (504/499 upstream, not
			// 502) and do NOT open the backoff window — one slow client must
			// not mark a healthy worker down for everyone else.
			return 0, nil, fmt.Errorf("router: %s: %w", e.addr, cerr)
		}
		e.markDown()
		return 0, nil, e.transportErr(err)
	}
	rc.c.SetDeadline(time.Time{})
	e.markUp()
	e.mu.Lock()
	// A canceled caller's connection is clean (the watcher has exited and
	// the deadline is reset below the error check), but a call that
	// finished in a dead heat with its own cancellation is the rare path:
	// close it rather than keep it.
	if len(e.idle) < remoteIdleConns && !e.closed.Load() && ctx.Err() == nil {
		e.idle = append(e.idle, rc)
		rc = nil
	}
	e.mu.Unlock()
	if rc != nil {
		rc.c.Close()
	}
	if rtyp == rpcwire.TErr {
		rep, derr := rpcwire.DecodeErrorReply(body)
		if derr != nil {
			return 0, nil, fmt.Errorf("router: %s: malformed error reply: %v", e.addr, derr)
		}
		if rep.Code == rpcwire.CodeRetiredGen {
			return 0, nil, fmt.Errorf("%w: %s: %s", ErrRetiredGeneration, e.addr, rep.Msg)
		}
		if rep.Code == rpcwire.CodeUnavailable {
			return 0, nil, fmt.Errorf("%w: %s: %s", ErrUnavailable, e.addr, rep.Msg)
		}
		return 0, nil, fmt.Errorf("router: %s: %s", e.addr, rep.Msg)
	}
	return rtyp, body, nil
}

// traceField resolves ctx's trace into the optional request trailer:
// nil when the query is unsampled.
func traceField(ctx context.Context) (*qtrace.Trace, qtrace.SpanRef, *rpcwire.TraceContext) {
	tr, parent := qtrace.FromContext(ctx)
	if tr == nil {
		return tr, parent, nil
	}
	id := tr.ID()
	return tr, parent, &rpcwire.TraceContext{Hi: id.Hi, Lo: id.Lo, Parent: uint32(parent)}
}

// Meta implements ShardEngine.
func (e *RemoteEngine) Meta(ctx context.Context) (Meta, error) {
	return e.shape(ctx, rpcwire.TMeta)
}

// shape sends a TMeta or TPublish request and decodes the worker's
// published shape from the reply. A worker lists every shard in the
// reply's Owned, in order; one that lists fewer still runs the earlier
// owned-stride layout (started with -index/-group), serves only its
// stride, and is refused.
func (e *RemoteEngine) shape(ctx context.Context, typ uint8) (Meta, error) {
	req := rpcwire.MetaRequest{Budget: headerFrom(ctx)}
	rtyp, body, err := e.call(ctx, typ, req.Append(nil))
	if err != nil {
		return Meta{}, err
	}
	if rtyp != rpcwire.TMetaRep {
		return Meta{}, fmt.Errorf("router: %s: unexpected reply type %d", e.addr, rtyp)
	}
	rep, err := rpcwire.DecodeMetaReply(body)
	if err != nil {
		return Meta{}, fmt.Errorf("router: %s: %v", e.addr, err)
	}
	listed := len(rep.Owned) == int(rep.Shards)
	for i := 0; listed && i < len(rep.Owned); i++ {
		listed = rep.Owned[i] == uint32(i)
	}
	if !listed {
		return Meta{}, fmt.Errorf("router: worker %s serves %d of its %d shards: it runs with -index/-group, which this router no longer supports; restart it without them", e.addr, len(rep.Owned), rep.Shards)
	}
	e.version.Store(rep.Version)
	return Meta{
		Nodes:         int(rep.Nodes),
		Edges:         int64(rep.Edges),
		Version:       rep.Version,
		LastBatch:     rep.LastBatch,
		Shift:         rep.Shift,
		Shards:        int(rep.Shards),
		ShardVersions: rep.ShardVersions,
	}, nil
}

// ResolveShards implements ShardEngine: one TShards round trip.
func (e *RemoteEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	tr, parent, tc := traceField(ctx)
	req := rpcwire.ShardsRequest{Budget: headerFrom(ctx), Version: version, Shards: make([]uint32, len(ps)), Trace: tc}
	for i, p := range ps {
		req.Shards[i] = uint32(p)
	}
	base := tr.Since()
	rtyp, body, err := e.call(ctx, rpcwire.TShards, req.Append(nil))
	if err != nil {
		return nil, err
	}
	if rtyp != rpcwire.TShardsRep {
		return nil, fmt.Errorf("router: %s: unexpected reply type %d", e.addr, rtyp)
	}
	rep, derr := rpcwire.DecodeShardsReply(body)
	if derr != nil {
		return nil, fmt.Errorf("router: %s: %v", e.addr, derr)
	}
	if len(rep.CSRs) != len(ps) {
		return nil, fmt.Errorf("router: %s: %d blocks for %d shards", e.addr, len(rep.CSRs), len(ps))
	}
	tr.Graft(parent, rep.Spans, base, "worker="+e.addr)
	return rep.CSRs, nil
}

// Ping implements ShardEngine: the health-loop probe. Unlike Meta it
// does not pin a generation on the worker, so firing it every health
// tick against a lagging or recovering member costs nothing.
func (e *RemoteEngine) Ping(ctx context.Context) (uint64, uint64, error) {
	req := rpcwire.PingRequest{Budget: headerFrom(ctx)}
	rtyp, body, err := e.call(ctx, rpcwire.TPing, req.Append(nil))
	if err != nil {
		return 0, 0, err
	}
	if rtyp != rpcwire.TPingRep {
		return 0, 0, fmt.Errorf("router: %s: unexpected reply type %d", e.addr, rtyp)
	}
	rep, derr := rpcwire.DecodePingReply(body)
	if derr != nil {
		return 0, 0, fmt.Errorf("router: %s: %v", e.addr, derr)
	}
	e.version.Store(rep.Version)
	return rep.Version, rep.LastBatch, nil
}

// Apply implements ShardEngine.
func (e *RemoteEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	tr, parent, tc := traceField(ctx)
	req := rpcwire.ApplyRequest{Budget: headerFrom(ctx), Batch: batch, Ops: ops, Trace: tc}
	base := tr.Since()
	rtyp, body, err := e.call(ctx, rpcwire.TApply, req.Append(nil))
	if err != nil {
		return 0, err
	}
	if rtyp != rpcwire.TMetaRep {
		return 0, fmt.Errorf("router: %s: unexpected reply type %d", e.addr, rtyp)
	}
	rep, err := rpcwire.DecodeMetaReply(body)
	if err != nil {
		return 0, fmt.Errorf("router: %s: %v", e.addr, err)
	}
	e.version.Store(rep.Version)
	tr.Graft(parent, rep.Spans, base, "worker="+e.addr)
	return rep.Version, nil
}

// Publish implements ShardEngine.
func (e *RemoteEngine) Publish(ctx context.Context) (Meta, error) {
	return e.shape(ctx, rpcwire.TPublish)
}

// Close implements ShardEngine.
func (e *RemoteEngine) Close() error {
	e.closed.Store(true)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rc := range e.idle {
		rc.c.Close()
	}
	e.idle = nil
	return nil
}

// headerFrom derives a request's budget header from its context: just
// the remaining deadline, which the worker re-arms as its own.
func headerFrom(ctx context.Context) budget.Header {
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			return budget.Header{Remaining: rem}
		}
		return budget.Header{Remaining: time.Nanosecond}
	}
	return budget.Header{}
}
