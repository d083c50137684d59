// Package tenant provides the multi-tenant QoS identity layer for the
// serving stack: who a request belongs to (the X-ProbeSim-Tenant
// header), what service class that tenant bought (latency-strict,
// throughput-batch, degrade-tolerant), and the per-tenant counters the
// SLO plane reports. The companion FairQueue (fairq.go) turns class
// weights into deficit-weighted admission so one tenant's burst cannot
// starve another's latency budget.
package tenant

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the request header carrying the tenant name. Requests
// without it belong to DefaultName.
const Header = "X-ProbeSim-Tenant"

// MaxEpsaHeader lets a request refuse degradation beyond a stated εa:
// if admission would degrade the query past this bound, the server
// answers 503 instead of silently serving the wider εa. A value below
// the configured base εa is unsatisfiable and rejected as a client
// error.
const MaxEpsaHeader = "X-ProbeSim-Max-Epsa"

// DefaultName is the tenant requests without a header resolve to.
const DefaultName = "default"

// Class is a tenant's service class; it selects the admission policy
// defaults (weight, queue depth, degrade acceptability, budget cap).
type Class int

const (
	// LatencyStrict tenants pay for tail latency: high fair-queue
	// weight, a short wait queue (better a fast 503 than a slow answer),
	// and no silent degradation — their answers are always full accuracy.
	LatencyStrict Class = iota
	// ThroughputBatch tenants pay for volume: low weight, a deep queue,
	// degradation accepted. They soak up slack capacity without
	// displacing latency-strict traffic.
	ThroughputBatch
	// DegradeTolerant is the pre-tenant default: medium weight and
	// queue, degradation accepted — exactly PR 4's behavior, so
	// headerless traffic is served the way it always was.
	DegradeTolerant
)

func (c Class) String() string {
	switch c {
	case LatencyStrict:
		return "latency-strict"
	case ThroughputBatch:
		return "throughput-batch"
	case DegradeTolerant:
		return "degrade-tolerant"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass parses the flag/config spelling of a class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "latency-strict":
		return LatencyStrict, nil
	case "throughput-batch":
		return ThroughputBatch, nil
	case "degrade-tolerant":
		return DegradeTolerant, nil
	}
	return 0, fmt.Errorf("tenant: unknown class %q (want latency-strict, throughput-batch or degrade-tolerant)", s)
}

// Config is one class's admission policy. Zero fields take the class
// defaults from Defaults.
type Config struct {
	// Weight is the deficit-round-robin quantum: a tenant with weight 4
	// is granted 4 slots for every 1 a weight-1 tenant gets while both
	// have waiters.
	Weight int
	// QueueDepth bounds the tenant's wait queue; a request arriving with
	// the queue full is the ONLY case that 503s under fair queueing. 0
	// means the tenant never waits: with every slot busy it 503s at once.
	QueueDepth int
	// AllowDegrade says whether the soft-watermark degrade path (wider
	// εa under pressure) is acceptable for this class. When false the
	// tenant is always served at full accuracy — it paid for the bound.
	AllowDegrade bool
	// BudgetCap, when set, caps the per-request deadline below the
	// server-wide QueryTimeout: a batch tenant can be held to a tighter
	// work budget than interactive traffic.
	BudgetCap time.Duration
}

// Defaults returns the built-in policy for a class.
func Defaults(c Class) Config {
	switch c {
	case LatencyStrict:
		return Config{Weight: 4, QueueDepth: 8, AllowDegrade: false}
	case ThroughputBatch:
		return Config{Weight: 1, QueueDepth: 32, AllowDegrade: true}
	default:
		return Config{Weight: 2, QueueDepth: 16, AllowDegrade: true}
	}
}

// Tenant is one tenant's live state: its resolved policy and the
// counters the SLO plane exports. All counter fields are atomics;
// Tenant values are shared freely across requests.
type Tenant struct {
	Name   string
	Class  Class
	Config Config

	Inflight       atomic.Int64 // queries executing now
	Admitted       atomic.Int64 // queries granted a slot (incl. after queueing)
	Queued         atomic.Int64 // queries that waited in the fair queue
	Rejected       atomic.Int64 // 503s from a full tenant queue (or hard limit)
	Degraded       atomic.Int64 // queries served at widened εa
	DegradeRefused atomic.Int64 // 503s because Max-Epsa forbade the degrade
}

// MaxTenants bounds distinct tenant label values: a client minting a
// fresh tenant name per request must not grow /metrics without bound.
// Past the cap, unknown names resolve to the shared overflow tenant.
const MaxTenants = 64

// OverflowName is the shared tenant unknown names collapse into once
// MaxTenants distinct names have been seen.
const OverflowName = "_overflow"

// Registry resolves header values to tenants. Configured tenants are
// installed up front; unknown names are admitted on first sight with
// the default class until MaxTenants is reached.
type Registry struct {
	mu       sync.Mutex
	tenants  map[string]*Tenant
	defClass Class
	classes  map[Class]Config
}

// NewRegistry builds a registry. classes overrides per-class policy
// (nil entries take Defaults); defClass is the class unknown and
// headerless tenants get.
func NewRegistry(defClass Class, classes map[Class]Config) *Registry {
	r := &Registry{
		tenants:  make(map[string]*Tenant),
		defClass: defClass,
		classes:  make(map[Class]Config),
	}
	for _, c := range []Class{LatencyStrict, ThroughputBatch, DegradeTolerant} {
		cfg := Defaults(c)
		if over, ok := classes[c]; ok {
			if over.Weight > 0 {
				cfg.Weight = over.Weight
			}
			if over.QueueDepth > 0 {
				cfg.QueueDepth = over.QueueDepth
			}
			if over.BudgetCap > 0 {
				cfg.BudgetCap = over.BudgetCap
			}
			cfg.AllowDegrade = over.AllowDegrade
		}
		r.classes[c] = cfg
	}
	// The default and overflow tenants always exist, so Resolve can
	// never fail and the overflow bucket is visible on /metrics from the
	// start rather than appearing mid-incident.
	r.add(DefaultName, defClass)
	r.add(OverflowName, defClass)
	return r
}

func (r *Registry) add(name string, c Class) *Tenant {
	t := &Tenant{Name: name, Class: c, Config: r.classes[c]}
	r.tenants[name] = t
	return t
}

// Configure installs a named tenant with an explicit class. Call before
// serving (it is synchronized, but a tenant's class is fixed once
// requests resolve it).
func (r *Registry) Configure(name string, c Class) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(name, c)
}

// Resolve maps a header value to its tenant: "" to the default tenant,
// configured names to their tenant, unknown names to a fresh
// default-class tenant until MaxTenants, then to the overflow tenant.
func (r *Registry) Resolve(name string) *Tenant {
	if name == "" {
		name = DefaultName
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok {
		return t
	}
	if len(r.tenants) >= MaxTenants {
		return r.tenants[OverflowName]
	}
	return r.add(name, r.defClass)
}

// All returns every known tenant sorted by name — the stable order
// /metrics and /debug/slo render in.
func (r *Registry) All() []*Tenant {
	r.mu.Lock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParseSpec parses the -tenants flag grammar:
//
//	name=class[,name=class...]
//
// e.g. "search=latency-strict,crawl=throughput-batch". An empty spec
// yields no configured tenants (every name resolves to the default
// class).
func ParseSpec(r *Registry, spec string) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, cls, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return fmt.Errorf("tenant: bad spec entry %q (want name=class)", part)
		}
		c, err := ParseClass(cls)
		if err != nil {
			return err
		}
		r.Configure(name, c)
	}
	return nil
}
