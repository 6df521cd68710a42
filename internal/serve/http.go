package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// QueryRequestWire is the JSON body of POST /query. Lo/Hi default to the
// sensor type's physical span when omitted.
type QueryRequestWire struct {
	Shard string   `json:"shard,omitempty"`
	Type  string   `json:"type"`
	Lo    *float64 `json:"lo,omitempty"`
	Hi    *float64 `json:"hi,omitempty"`
	// TimeoutMs bounds the server-side wait for the answer (default
	// 30000).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// StatsReply is the JSON body of GET /stats.
type StatsReply struct {
	Server *ServerStats `json:"server,omitempty"`
	Shards []ShardStats `json:"shards"`
}

// ServerStats is the process-level section of GET /stats: build identity,
// uptime and Go runtime health.
type ServerStats struct {
	Version        string  `json:"version,omitempty"`
	GoVersion      string  `json:"go_version"`
	UptimeSeconds  float64 `json:"uptime_seconds,omitempty"`
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	NumGC          uint32  `json:"num_gc"`
}

// ServerInfo parameterizes the process-level parts of the handler: the
// ldflags-stamped build version and a wall clock for uptime (nil Now
// omits uptime — the serving layer itself never reads wall time).
type ServerInfo struct {
	Version string
	Now     func() time.Time
}

// serverStats builds the /stats server section.
func (info ServerInfo) serverStats(started time.Time) *ServerStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := &ServerStats{
		Version:        info.Version,
		GoVersion:      runtime.Version(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
	}
	if info.Now != nil {
		st.UptimeSeconds = info.Now().Sub(started).Seconds()
	}
	return st
}

// HealthReply is the JSON body of GET /healthz.
type HealthReply struct {
	Status string          `json:"status"` // "ok" or "degraded"
	Shards map[string]bool `json:"shards"` // shard ID -> loop running
}

// ShardInfo describes one hosted shard for GET /shards.
type ShardInfo struct {
	ID           string `json:"id"`
	Nodes        int    `json:"nodes"`
	Seed         uint64 `json:"seed"`
	Mode         string `json:"mode"`
	StepEpochs   int64  `json:"step_epochs"`
	SettleEpochs int64  `json:"settle_epochs"`
	Horizon      int64  `json:"horizon_epochs"`
	// ChaosEvents counts the scheduled chaos-mode script events, after
	// cascade expansion (the same unit Stats' chaos counters use).
	ChaosEvents int `json:"chaos_events,omitempty"`
}

// errorReply is the JSON body of every non-2xx response.
type errorReply struct {
	Error string `json:"error"`
}

const defaultQueryTimeout = 30 * time.Second

// overloadedRetryAfter is the Retry-After value (in seconds) sent with
// 429 replies. A settle window is typically well under a second, so one
// second is a conservative "the queue will have drained" hint.
const overloadedRetryAfter = "1"

// maxQueryBody caps a POST /query body. A query is a few dozen bytes; a
// body past the cap is answered 413 instead of being read to its end.
const maxQueryBody = 64 << 10

// Connection timeouts of the server NewServer builds. readHeaderTimeout
// cuts off a client that trickles its request headers; idleTimeout closes
// keep-alive connections left idle between requests. Neither bounds the
// wait for a query's answer, which its timeout_ms governs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer returns the http.Server that serves h on addr with the
// connection timeouts above.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// NewHandler exposes a Manager over HTTP:
//
//	POST /query         admit one range query, wait for its answer
//	GET  /stats         live per-shard counters plus server/runtime info
//	GET  /healthz       liveness of every shard loop
//	GET  /shards        static shard descriptions
//	GET  /metrics       telemetry registry, Prometheus text format
//	GET  /metrics.json  telemetry registry, JSON with p50/p90/p99
//
// A /query body may hold only QueryRequestWire's fields and at most
// maxQueryBody bytes (413 past it). The optional ServerInfo stamps /stats
// with a build version and uptime.
func NewHandler(m *Manager, info ...ServerInfo) http.Handler {
	var si ServerInfo
	haveInfo := len(info) > 0
	if haveInfo {
		si = info[0]
	}
	var started time.Time
	if si.Now != nil {
		started = si.Now()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody))
		dec.DisallowUnknownFields()
		var wire QueryRequestWire
		if err := dec.Decode(&wire); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, fmt.Errorf("bad JSON body: %w", err))
			return
		}
		req, timeout, err := wire.toRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		resp, err := m.Query(ctx, req)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, resp)
		case errors.Is(err, ErrNoSuchShard):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrOverloaded):
			// Backpressure, not failure: the shard shed the query because
			// its admission queue is full. Retry-After carries the hint
			// serve.Client's bounded-backoff retry honors.
			w.Header().Set("Retry-After", overloadedRetryAfter)
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrHorizonReached):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		reply := StatsReply{Shards: m.Stats()}
		if haveInfo {
			// The server section appears only when the caller supplied
			// ServerInfo, keeping the pre-existing wire format intact for
			// embedders that did not.
			reply.Server = si.serverStats(started)
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.Telemetry().WritePrometheus(w) //nolint:errcheck // client gone is not actionable
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m.Telemetry().WriteJSON(w) //nolint:errcheck // client gone is not actionable
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		rep := HealthReply{Status: "ok", Shards: map[string]bool{}}
		for _, sh := range m.Shards() {
			running := sh.Running()
			rep.Shards[sh.ID()] = running
			if !running {
				rep.Status = "degraded"
			}
		}
		code := http.StatusOK
		if rep.Status != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, rep)
	})
	mux.HandleFunc("GET /shards", func(w http.ResponseWriter, r *http.Request) {
		var infos []ShardInfo
		for _, sh := range m.Shards() {
			cfg := sh.Config()
			infos = append(infos, ShardInfo{
				ID:           cfg.ID,
				Nodes:        cfg.Scenario.NumNodes,
				Seed:         cfg.Scenario.Seed,
				Mode:         cfg.Scenario.Mode.String(),
				StepEpochs:   cfg.StepEpochs,
				SettleEpochs: cfg.SettleEpochs,
				Horizon:      cfg.Scenario.Epochs,
				ChaosEvents:  sh.ChaosEvents(),
			})
		}
		writeJSON(w, http.StatusOK, infos)
	})
	return mux
}

// toRequest validates the wire form and fills span defaults.
func (wire QueryRequestWire) toRequest() (Request, time.Duration, error) {
	t, err := ParseSensorType(wire.Type)
	if err != nil {
		return Request{}, 0, err
	}
	lo, hi := t.Span()
	if wire.Lo != nil {
		lo = *wire.Lo
	}
	if wire.Hi != nil {
		hi = *wire.Hi
	}
	req := Request{Shard: wire.Shard, Type: t, Lo: lo, Hi: hi}
	if err := req.Validate(); err != nil {
		return Request{}, 0, err
	}
	timeout := defaultQueryTimeout
	if wire.TimeoutMs > 0 {
		timeout = time.Duration(wire.TimeoutMs) * time.Millisecond
	}
	return req, timeout, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not actionable
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorReply{Error: err.Error()})
}
