package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"gscalar"
	"gscalar/internal/experiments"
	"gscalar/internal/gen"
	"gscalar/internal/workloads"
)

// Handler returns the server's HTTP API:
//
//	POST /api/v1/jobs              submit a point or sweep grid -> 202 {id, points}
//	GET  /api/v1/jobs              list jobs
//	GET  /api/v1/jobs/{id}         job status with per-point state and progress
//	GET  /api/v1/jobs/{id}/result  completed Results (byte-identical store bytes)
//	GET  /api/v1/jobs/{id}/metrics stored telemetry blobs of completed points
//	POST /api/v1/jobs/{id}/cancel  cancel queued and running points
//	GET  /api/v1/workloads         workload catalog (builtins + trace/gen spec syntax)
//	GET  /api/v1/stats             server counters
//	GET  /healthz                  liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// submitRequest is the POST /api/v1/jobs body. Singular and plural fields
// combine; the job is the cross product archs x workloads x scales, all
// sharing one config. An absent config means the Table 1 default; an absent
// scale means 1.
type submitRequest struct {
	Config    json.RawMessage `json:"config,omitempty"`
	Arch      string          `json:"arch,omitempty"`
	Archs     []string        `json:"archs,omitempty"`
	Workload  string          `json:"workload,omitempty"`
	Workloads []string        `json:"workloads,omitempty"`
	Scale     int             `json:"scale,omitempty"`
	Scales    []int           `json:"scales,omitempty"`
}

// maxSubmitBytes caps a submit body, so one request cannot make the daemon
// buffer a JSON value of any size. A grid over every builtin, architecture
// and a few scales is a few hundred bytes.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("parsing request body: %w", err))
		return
	}
	specs, err := req.grid()
	if err != nil {
		// A bad generator dial gets the dial schema echoed alongside the
		// error, so a client can repair the spec without a second request.
		var de *gen.DialError
		if errors.As(err, &de) {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error":     err.Error(),
				"generator": generatorView(),
			})
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(specs)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errDraining) || errors.Is(err, errQueueFull) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "points": len(j.points)})
}

// grid expands the request into its point list, validating every component.
func (req submitRequest) grid() ([]experiments.Point, error) {
	archs := req.Archs
	if req.Arch != "" {
		archs = append([]string{req.Arch}, archs...)
	}
	if len(archs) == 0 {
		return nil, errors.New("missing arch (set \"arch\" or \"archs\")")
	}
	wls := req.Workloads
	if req.Workload != "" {
		wls = append([]string{req.Workload}, wls...)
	}
	if len(wls) == 0 {
		return nil, errors.New("missing workload (set \"workload\" or \"workloads\")")
	}
	scales := req.Scales
	if req.Scale != 0 {
		scales = append([]int{req.Scale}, scales...)
	}
	if len(scales) == 0 {
		scales = []int{1}
	}
	var points []experiments.Point
	seen := make(map[string]bool)
	for _, a := range archs {
		for _, wl := range wls {
			for _, sc := range scales {
				pt, err := pointFromParts(req.Config, a, wl, sc)
				if err != nil {
					return nil, err
				}
				k := pt.Key()
				if seen[k] { // an identical grid cell, e.g. arch repeated in archs
					continue
				}
				seen[k] = true
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// pointHead is the wire identity and state of one point, the fields every
// per-point view starts with.
type pointHead struct {
	Arch     string `json:"arch"`
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	Key      string `json:"key"`
	Status   string `json:"status"`
	Cached   bool   `json:"cached,omitempty"`
	Joined   bool   `json:"joined,omitempty"`
	Partial  bool   `json:"partial,omitempty"`
}

// headLocked returns p's wire identity and state; callers hold s.mu.
func (p *pointState) headLocked() pointHead {
	return pointHead{
		Arch:     p.pt.Arch.String(),
		Workload: p.pt.Workload,
		Scale:    p.pt.Scale,
		Key:      p.key,
		Status:   p.status.String(),
		Cached:   p.cached,
		Joined:   p.joined,
		Partial:  p.partial,
	}
}

// pointView is the wire form of one point's state.
type pointView struct {
	pointHead
	Error    string            `json:"error,omitempty"`
	Progress *gscalar.Progress `json:"progress,omitempty"`
}

// jobView is the wire form of one job.
type jobView struct {
	ID        string         `json:"id"`
	State     string         `json:"state"`
	Recovered bool           `json:"recovered,omitempty"`
	Counts    map[string]int `json:"counts"`
	Points    []pointView    `json:"points,omitempty"`
}

// viewLocked renders the job; callers hold s.mu.
func (s *Server) viewLocked(j *job, withPoints bool) jobView {
	v := jobView{ID: j.id, Recovered: j.recovered, Counts: make(map[string]int)}
	anyRunning, anyQueued, anyFailed, anyCancelled := false, false, false, false
	for _, p := range j.points {
		v.Counts[p.status.String()]++
		switch p.status {
		case pointRunning:
			anyRunning = true
		case pointQueued:
			anyQueued = true
		case pointFailed:
			anyFailed = true
		case pointCancelled:
			anyCancelled = true
		}
		if withPoints {
			pv := pointView{pointHead: p.headLocked(), Error: p.errMsg}
			if p.status == pointRunning {
				if pr, ok := s.progress[p.key]; ok {
					pv.Progress = &pr
				}
			}
			v.Points = append(v.Points, pv)
		}
	}
	switch {
	case anyRunning:
		v.State = "running"
	case anyQueued:
		v.State = "queued"
	case anyFailed:
		v.State = "failed"
	case anyCancelled:
		v.State = "cancelled"
	default:
		v.State = "done"
	}
	return v
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.viewLocked(s.jobs[id], false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	v := s.viewLocked(j, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// resultView pairs a point's identity with its Result bytes, verbatim from
// the store (or the partial prefix of a cancelled run).
type resultView struct {
	pointHead
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	v := s.viewLocked(j, false)
	results := make([]resultView, 0, len(j.points))
	for _, p := range j.points {
		results = append(results, resultView{pointHead: p.headLocked(), Result: p.result})
	}
	s.mu.Unlock()
	// Compact encoding: the stored Result bytes are compact, and compacting
	// compact JSON is the identity, so the response carries them verbatim —
	// an indented encoder would reformat the raw bytes instead.
	writeJSONCompact(w, http.StatusOK, map[string]any{
		"id":       j.id,
		"state":    v.State,
		"complete": v.State == "done",
		"results":  results,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	keys := make([]string, 0, len(j.points))
	for _, p := range j.points {
		if p.status == pointDone {
			keys = append(keys, p.key)
		}
	}
	s.mu.Unlock()
	type metricsView struct {
		Key     string          `json:"key"`
		Metrics json.RawMessage `json:"metrics,omitempty"`
	}
	out := make([]metricsView, 0, len(keys))
	for _, k := range keys {
		e, ok, err := s.st.Get(k)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		if ok {
			out = append(out, metricsView{Key: k, Metrics: e.Metrics})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "metrics": out})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := s.CancelJob(j.id); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Lock()
	v := s.viewLocked(j, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// workloadView is one catalog entry of GET /api/v1/workloads.
type workloadView struct {
	Abbr  string `json:"abbr"`
	Name  string `json:"name"`
	Suite string `json:"suite"`
	Desc  string `json:"desc"`
}

// handleWorkloads serves the workload catalog: every builtin benchmark in
// Table 2 order, the spec syntax for trace replays, and the synthetic
// generator's dial schema, so clients can discover valid "workload" values
// before submitting.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	abbrs := gscalar.Workloads()
	views := make([]workloadView, 0, len(abbrs))
	for _, a := range abbrs {
		info, ok := gscalar.WorkloadByAbbr(a)
		if !ok {
			continue
		}
		views = append(views, workloadView{Abbr: info.Abbr, Name: info.Name, Suite: info.Suite, Desc: info.Desc})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workloads":  views,
		"trace_spec": "trace:<path> — replay a trace captured with gscalar-sim -trace-out (the path must be readable by the server)",
		"generator":  generatorView(),
	})
}

// generatorView is the machine-readable description of the "gen:" workload
// form: the spec prefix plus the dial schema (name, type, range, default,
// description per dial). It is served in the workload catalog and echoed in
// submit errors caused by out-of-range dials.
func generatorView() map[string]any {
	return map[string]any{
		"prefix": workloads.GenPrefix,
		"syntax": workloads.GenPrefix + "name=value,name=value,... (omitted dials take their defaults)",
		"dials":  gen.Schema(),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSONCompact(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
