package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"gscalar"
	"gscalar/internal/experiments"
	"gscalar/internal/store"
)

// pendingFileName is written inside the store directory on drain and read
// back on startup. It holds every point that had not reached a terminal
// state, in original FIFO order.
const pendingFileName = "pending.json"

type pendingPoint struct {
	Config   json.RawMessage `json:"config"`
	Arch     string          `json:"arch"`
	Workload string          `json:"workload"`
	Scale    int             `json:"scale"`
}

type pendingFile struct {
	Points []pendingPoint `json:"points"`
}

func (s *Server) pendingPath() string {
	return filepath.Join(s.st.Dir(), pendingFileName)
}

// persistPending writes every queued/unfinished point to pending.json (or
// removes the file when nothing is pending, so a clean drain leaves no
// residue). Called by Drain after the worker pool has exited, so point
// states are final.
func (s *Server) persistPending() (int, error) {
	s.mu.Lock()
	var pf pendingFile
	for _, id := range s.order {
		for _, p := range s.jobs[id].points {
			if p.status != pointQueued {
				continue
			}
			cfg, err := json.Marshal(p.pt.Config)
			if err != nil {
				s.mu.Unlock()
				return 0, fmt.Errorf("serve: encode pending config: %w", err)
			}
			pf.Points = append(pf.Points, pendingPoint{
				Config:   cfg,
				Arch:     p.pt.Arch.String(),
				Workload: p.pt.Workload,
				Scale:    p.pt.Scale,
			})
		}
	}
	s.mu.Unlock()
	if len(pf.Points) == 0 {
		if err := os.Remove(s.pendingPath()); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return 0, err
		}
		return 0, nil
	}
	err := store.AtomicWrite(s.pendingPath(), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(pf)
	})
	if err != nil {
		return 0, err
	}
	return len(pf.Points), nil
}

// loadPending re-enqueues the points a drained predecessor left behind, as
// one recovered job. Points that completed before the drain resolve as
// store hits, so nothing simulates twice across server lifetimes. The file
// is left in place until the next Drain rewrites or removes it; re-loading
// it after a hard kill is harmless for the same reason.
func (s *Server) loadPending() error {
	data, err := os.ReadFile(s.pendingPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var pf pendingFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return fmt.Errorf("serve: corrupt %s: %w", pendingFileName, err)
	}
	if len(pf.Points) == 0 {
		return nil
	}
	points := make([]experiments.Point, 0, len(pf.Points))
	for i, pp := range pf.Points {
		pt, err := pointFromParts(pp.Config, pp.Arch, pp.Workload, pp.Scale)
		if err != nil {
			return fmt.Errorf("serve: %s point %d: %w", pendingFileName, i, err)
		}
		points = append(points, pt)
	}
	_, err = s.submit(points, true)
	return err
}

// pointFromParts validates and assembles one point from its wire form.
func pointFromParts(cfgJSON json.RawMessage, archName, workload string, scale int) (experiments.Point, error) {
	var pt experiments.Point
	if len(cfgJSON) == 0 || string(cfgJSON) == "null" {
		pt.Config = gscalar.DefaultConfig()
	} else {
		cfg, err := gscalar.ConfigFromJSON(cfgJSON)
		if err != nil {
			return experiments.Point{}, err
		}
		pt.Config = cfg
	}
	arch, ok := gscalar.ArchByName(archName)
	if !ok {
		return experiments.Point{}, fmt.Errorf("unknown arch %q (valid: %v)", archName, gscalar.ArchNames())
	}
	pt.Arch = arch
	// A workload is a spec: a builtin abbreviation or "trace:<path>".
	// CanonicalWorkloadKey resolves both — for traces it decodes the file,
	// so a submission referencing a missing or corrupt trace is rejected
	// here with the decoder's typed error instead of failing mid-sweep.
	if _, err := gscalar.CanonicalWorkloadKey(workload); err != nil {
		var unk *gscalar.UnknownWorkloadError
		if errors.As(err, &unk) {
			return experiments.Point{}, fmt.Errorf("unknown workload %q (valid: %v; or trace:<path>)", workload, gscalar.Workloads())
		}
		return experiments.Point{}, fmt.Errorf("workload %q: %w", workload, err)
	}
	pt.Workload = workload
	if scale == 0 {
		scale = 1
	}
	if scale < 1 {
		return experiments.Point{}, fmt.Errorf("scale %d: must be >= 1", scale)
	}
	pt.Scale = scale
	return pt, nil
}
