package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// HealthStatus is the /healthz payload: the liveness view of a running
// timeline (or a finished one, Running=false). OK false serves 503 so load
// balancers and alerting probes need no JSON parsing.
type HealthStatus struct {
	OK bool `json:"ok"`
	// Running reports whether a timeline is currently advancing.
	Running bool `json:"running"`
	// Scenario/Policy identify the run; Epoch/Epochs its progress.
	Scenario string `json:"scenario,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Epoch    int    `json:"epoch"`
	Epochs   int    `json:"epochs"`
	// AuditOK is the last epoch's audit verdict; SLOOk whether it met the
	// availability target.
	AuditOK bool `json:"audit_ok"`
	SLOOk   bool `json:"slo_ok"`
	// Reason says why OK is false when the cause is not the audit — a
	// daemon whose last solve failed reports the error here.
	Reason string `json:"reason,omitempty"`
	// UptimeSeconds is filled at serve time.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// RegionSLO is one region's row of the /slo breakdown.
type RegionSLO struct {
	Region int `json:"region"`
	// Active/Met count this epoch's active demand units in the region and
	// how many met their reliability threshold; Frac is Met/Active.
	Active int     `json:"active_sinks"`
	Met    int     `json:"met"`
	Frac   float64 `json:"frac"`
	// WindowFrac is the trailing-window availability of the region alone.
	WindowFrac float64 `json:"window_frac"`
}

// StreamSLO is one stream's row of the /slo breakdown: the region rule
// applied stream-locally, answering "which channel is degraded" where
// RegionSLO answers "where did the outage land".
type StreamSLO struct {
	Stream int `json:"stream"`
	// Active/Met count this epoch's active demand units on the stream and
	// how many met their reliability threshold; Frac is Met/Active.
	Active int     `json:"active_sinks"`
	Met    int     `json:"met"`
	Frac   float64 `json:"frac"`
	// WindowFrac is the trailing-window availability of the stream alone.
	WindowFrac float64 `json:"window_frac"`
}

// SLOStatus is the /slo payload: the windowed availability SLO plus
// per-region and per-stream breakdowns (the alerting view of the §1.3
// monitoring loop).
type SLOStatus struct {
	Window int     `json:"window"`
	Target float64 `json:"target"`
	// Ok / WindowFrac mirror the current epoch's SLO fields; Breaches and
	// MinWindowFrac summarize the run so far.
	Ok            bool        `json:"ok"`
	WindowFrac    float64     `json:"window_frac"`
	Breaches      int         `json:"breaches"`
	MinWindowFrac float64     `json:"min_window_frac"`
	Regions       []RegionSLO `json:"regions,omitempty"`
	Streams       []StreamSLO `json:"streams,omitempty"`
}

// Server is the opt-in debug/telemetry endpoint: /metrics (Prometheus
// text), /healthz, /slo, /debug/vars (expvar), and /debug/pprof. It is the
// seed of the overlayd daemon — overlaylive -listen serves one during a
// live run. State setters are safe for concurrent use with serving.
type Server struct {
	reg    *Registry
	mux    *http.ServeMux
	start  time.Time
	health atomic.Pointer[HealthStatus]
	slo    atomic.Pointer[SLOStatus]
}

// NewServer builds a server exposing the registry. The registry is also
// published to expvar under "overlay" (first server wins; /debug/vars
// serves the process-global expvar set).
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now()}
	PublishExpvar("overlay", reg)
	s.mux.HandleFunc("/metrics", s.serveMetrics)
	s.mux.HandleFunc("/healthz", s.serveHealth)
	s.mux.HandleFunc("/slo", s.serveSLO)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's routing handler, for mounting on any
// net/http server (or an httptest one).
func (s *Server) Handler() http.Handler { return s.mux }

// SetHealth atomically replaces the /healthz state.
func (s *Server) SetHealth(h HealthStatus) { s.health.Store(&h) }

// SetSLO atomically replaces the /slo state.
func (s *Server) SetSLO(sl SLOStatus) { s.slo.Store(&sl) }

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteProm(w)
}

func (s *Server) serveHealth(w http.ResponseWriter, _ *http.Request) {
	h := s.health.Load()
	var out HealthStatus
	if h != nil {
		out = *h
	}
	out.UptimeSeconds = time.Since(s.start).Seconds()
	code := http.StatusOK
	if h == nil || !out.OK {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

func (s *Server) serveSLO(w http.ResponseWriter, _ *http.Request) {
	sl := s.slo.Load()
	if sl == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no SLO state yet"})
		return
	}
	writeJSON(w, http.StatusOK, sl)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
