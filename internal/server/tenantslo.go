package server

// Tenant QoS + SLO plane glue: arming the tenant registry (which gives
// each query its own tenant's place in the admission fair queue instead
// of the default tenant's), arming the per-tenant SLO tracker, the
// /debug/slo endpoint, and the tenant-labeled families on /metrics. The
// policy engines live in internal/tenant and internal/slo; this file is
// the HTTP surface.

import (
	"fmt"
	"io"
	"net/http"

	"probesim/internal/promexpo"
	"probesim/internal/slo"
	"probesim/internal/tenant"
)

// SetTenants arms multi-tenant admission: requests resolve their tenant
// from the X-ProbeSim-Tenant header, and tenant class policy governs
// the tenant's fair-queue weight and wait depth, degradation and budget
// cap, so a tenant 503s only when its OWN wait queue is full. A nil
// registry puts every query on the one default tenant, which never
// waits. Call before serving, before or after SetLimits (like
// SetLimits, it is not synchronized with requests).
func (s *Server) SetTenants(reg *tenant.Registry) { s.tenants = reg }

// SetSLO arms per-tenant SLO tracking: every completed query feeds the
// tracker's rolling windows, /debug/slo serves the windowed state, and
// /metrics grows the probesim_slo_* families. Call before serving.
func (s *Server) SetSLO(tr *slo.Tracker) { s.slo = tr }

// handleDebugSLO serves the per-tenant windowed SLO state as JSON. With
// the tracker unarmed it reports the fact instead of an empty mystery.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	if s.slo == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false, "tenants": []any{}})
		return
	}
	snaps := s.slo.Snapshot()
	if snaps == nil {
		snaps = []slo.TenantSLO{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"enabled": true, "tenants": snaps})
}

// writeTenantMetrics renders the tenant-labeled families: admission
// counters per tenant (from the registry) and windowed SLO state (from
// the tracker). Tenant names are client-supplied bytes, so every label
// value goes through EscapeLabel.
func (s *Server) writeTenantMetrics(out io.Writer) {
	if s.tenants != nil {
		all := s.tenants.All()
		label := func(t *tenant.Tenant) string {
			// EscapeLabel already produced exposition-format escapes; %q
			// would double them.
			return `tenant="` + promexpo.EscapeLabel(t.Name) + `",class="` + t.Class.String() + `"`
		}
		sample := func(v func(*tenant.Tenant) int64) []promexpo.Sample {
			samples := make([]promexpo.Sample, len(all))
			for i, t := range all {
				samples[i] = promexpo.Sample{Label: label(t), Value: v(t)}
			}
			return samples
		}
		promexpo.WriteLabeled(out, "probesim_tenant_inflight", "Similarity queries the tenant has executing now.", "gauge",
			sample(func(t *tenant.Tenant) int64 { return t.Inflight.Load() }))
		promexpo.WriteLabeled(out, "probesim_tenant_admitted_total", "Similarity queries admitted for the tenant (including after queueing).", "counter",
			sample(func(t *tenant.Tenant) int64 { return t.Admitted.Load() }))
		promexpo.WriteLabeled(out, "probesim_tenant_queued_total", "Similarity queries that waited in the tenant's fair queue.", "counter",
			sample(func(t *tenant.Tenant) int64 { return t.Queued.Load() }))
		promexpo.WriteLabeled(out, "probesim_tenant_rejected_total", "Similarity queries refused because the tenant's own queue (or the hard limit) was full.", "counter",
			sample(func(t *tenant.Tenant) int64 { return t.Rejected.Load() }))
		promexpo.WriteLabeled(out, "probesim_tenant_degraded_total", "Similarity queries the tenant had served at widened epsa.", "counter",
			sample(func(t *tenant.Tenant) int64 { return t.Degraded.Load() }))
		promexpo.WriteLabeled(out, "probesim_tenant_degrade_refused_total", "Similarity queries refused because X-ProbeSim-Max-Epsa forbade the degrade.", "counter",
			sample(func(t *tenant.Tenant) int64 { return t.DegradeRefused.Load() }))
	}
	if s.slo != nil {
		snaps := s.slo.Snapshot()
		label := func(ts slo.TenantSLO) string {
			return `tenant="` + promexpo.EscapeLabel(ts.Tenant) + `"`
		}
		fsample := func(v func(slo.TenantSLO) float64) []promexpo.FloatSample {
			samples := make([]promexpo.FloatSample, len(snaps))
			for i, ts := range snaps {
				samples[i] = promexpo.FloatSample{Label: label(ts), Value: v(ts)}
			}
			return samples
		}
		sample := func(v func(slo.TenantSLO) int64) []promexpo.Sample {
			samples := make([]promexpo.Sample, len(snaps))
			for i, ts := range snaps {
				samples[i] = promexpo.Sample{Label: label(ts), Value: v(ts)}
			}
			return samples
		}
		promexpo.WriteLabeledFloat(out, "probesim_slo_p99_seconds", "Windowed p99 latency upper bound per tenant.", "gauge",
			fsample(func(ts slo.TenantSLO) float64 { return ts.P99Seconds }))
		promexpo.WriteLabeledFloat(out, "probesim_slo_p99_objective_seconds", "The tenant's p99 latency objective.", "gauge",
			fsample(func(ts slo.TenantSLO) float64 { return ts.Objective.P99.Seconds() }))
		promexpo.WriteLabeledFloat(out, "probesim_slo_availability", "Windowed success fraction per tenant.", "gauge",
			fsample(func(ts slo.TenantSLO) float64 { return ts.Availability }))
		promexpo.WriteLabeledFloat(out, "probesim_slo_availability_objective", "The tenant's availability objective.", "gauge",
			fsample(func(ts slo.TenantSLO) float64 { return ts.Objective.Availability }))
		promexpo.WriteLabeledFloat(out, "probesim_slo_error_budget_burn_ratio", "Error budget burn rate: observed error rate over the rate the objective allows (1 = budget-neutral).", "gauge",
			fsample(func(ts slo.TenantSLO) float64 { return ts.BurnRate }))
		promexpo.WriteLabeled(out, "probesim_slo_window_requests", "Queries in the tenant's current SLO window.", "gauge",
			sample(func(ts slo.TenantSLO) int64 { return ts.Requests }))
		promexpo.WriteLabeled(out, "probesim_slo_window_errors", "Failed (5xx) queries in the tenant's current SLO window.", "gauge",
			sample(func(ts slo.TenantSLO) int64 { return ts.Errors }))
	}
}
