package service

// SLO wiring: the slo.Engine observes every sync-endpoint outcome from
// the instrument wrapper; breach events become exactly one structured
// alert line, a "degraded" /healthz, and (cooldown permitting) an
// evidence capture — a short CPU profile plus a slowest-trace flush —
// written under the configured evidence directory.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"lodim/internal/slo"
	"lodim/internal/trace"
)

// SLOConfig configures the rolling-window SLO engine.
type SLOConfig struct {
	// Availability, when in (0, 1), enables the availability objective:
	// a request is bad when it ends ≥ 500.
	Availability float64
	// LatencyP99, when > 0, enables the latency objective at a 0.99
	// target: a request is bad when its total duration exceeds the
	// threshold.
	LatencyP99 time.Duration
	// Window is the slow evaluation window ("5m", "30m", "6h"; ""
	// selects 5m). The fast window is one step shorter.
	Window string
	// BurnRate, MinEvents and CaptureCooldown tune alerting; zero
	// values select the slo package defaults (4, 20, 10m).
	BurnRate        float64
	MinEvents       int64
	CaptureCooldown time.Duration
	// EvidenceDir, when non-empty, receives one subdirectory per
	// capture (meta.json, cpu.pprof, traces/). Empty disables captures;
	// alerts and the degraded health flip still happen.
	EvidenceDir string
	// ProfileDuration bounds the capture's CPU profile (0 selects 1s).
	ProfileDuration time.Duration
	// Now injects the engine clock for tests.
	Now func() time.Time
}

// enabled reports whether the config asks for at least one objective.
func (c *SLOConfig) enabled() bool {
	return c != nil && (c.Availability > 0 || c.LatencyP99 > 0)
}

// engineConfig translates the service-facing knobs into slo.Config.
func (c *SLOConfig) engineConfig() slo.Config {
	var objs []slo.Objective
	if c.Availability > 0 {
		objs = append(objs, slo.Objective{Name: "availability", Target: c.Availability})
	}
	if c.LatencyP99 > 0 {
		objs = append(objs, slo.Objective{Name: "latency-p99", Target: 0.99, Threshold: c.LatencyP99})
	}
	return slo.Config{
		Objectives:      objs,
		Window:          c.Window,
		BurnRate:        c.BurnRate,
		MinEvents:       c.MinEvents,
		CaptureCooldown: c.CaptureCooldown,
		Now:             c.Now,
	}
}

// ValidateSLOConfig builds the engine once and discards it — the
// pre-New check cmd/mapserve runs at flag-parse time.
func ValidateSLOConfig(c *SLOConfig) error {
	if !c.enabled() {
		return nil
	}
	_, err := slo.NewEngine(c.engineConfig())
	return err
}

// sloState is the per-service SLO glue.
type sloState struct {
	svc         *Service
	eng         *slo.Engine
	evidenceDir string
	profileDur  time.Duration

	breachedObjectives atomic.Int64 // currently-breached count; > 0 → degraded
	captureSeq         atomic.Int64
}

func newSLOState(s *Service, cfg *SLOConfig) (*sloState, error) {
	eng, err := slo.NewEngine(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	profileDur := cfg.ProfileDuration
	if profileDur <= 0 {
		profileDur = time.Second
	}
	return &sloState{svc: s, eng: eng, evidenceDir: cfg.EvidenceDir, profileDur: profileDur}, nil
}

// observe feeds one finished sync request into the engine and handles
// any transitions it produced.
func (st *sloState) observe(status int, total time.Duration) {
	for _, ev := range st.eng.Observe(status >= 500, total) {
		st.handle(ev)
	}
}

// handle turns one engine transition into its operational effects.
// Exactly one log line per transition.
func (st *sloState) handle(ev slo.Event) {
	logger := st.svc.cfg.Logger
	if ev.Recovered {
		st.breachedObjectives.Add(-1)
		if logger != nil {
			logger.Info("slo recovered",
				slog.String("objective", ev.Objective),
				slog.String("fast_window", ev.FastWindow),
				slog.Float64("fast_burn", ev.FastBurn),
				slog.Float64("slow_burn", ev.SlowBurn))
		}
		return
	}
	st.breachedObjectives.Add(1)
	capturing := ev.Capture && st.evidenceDir != ""
	if logger != nil {
		logger.Warn("slo breach",
			slog.String("objective", ev.Objective),
			slog.String("window", ev.Window),
			slog.String("fast_window", ev.FastWindow),
			slog.Float64("fast_burn", ev.FastBurn),
			slog.Float64("slow_burn", ev.SlowBurn),
			slog.Float64("burn_rate_threshold", ev.BurnRate),
			slog.Bool("capture", capturing))
	}
	if capturing {
		// The capture runs off the request path, registered with begin()
		// so Close drains it like any in-flight work.
		done, err := st.svc.begin()
		if err != nil {
			return
		}
		go func() {
			defer done()
			st.capture(ev)
		}()
	}
}

// profileActive serializes CPU profiling process-wide:
// pprof.StartCPUProfile is global, and two engines (or two breaching
// objectives) must not fight over it.
var profileActive atomic.Bool

// capture writes one evidence bundle: the breach event, a CPU profile,
// and a fresh slowest-trace flush of the live registry. All errors are
// swallowed — evidence gathering must never hurt the service.
func (st *sloState) capture(ev slo.Event) {
	seq := st.captureSeq.Add(1)
	dir := filepath.Join(st.evidenceDir, fmt.Sprintf("%s-%03d", ev.Objective, seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	if meta, err := json.MarshalIndent(map[string]any{
		"objective":   ev.Objective,
		"window":      ev.Window,
		"fast_window": ev.FastWindow,
		"fast_burn":   ev.FastBurn,
		"slow_burn":   ev.SlowBurn,
		"captured_at": time.Now().UTC().Format(time.RFC3339Nano),
	}, "", " "); err == nil {
		os.WriteFile(filepath.Join(dir, "meta.json"), append(meta, '\n'), 0o644)
	}
	if profileActive.CompareAndSwap(false, true) {
		if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
			if pprof.StartCPUProfile(f) == nil {
				time.Sleep(st.profileDur)
				pprof.StopCPUProfile()
			}
			f.Close()
		}
		profileActive.Store(false)
	}
	if reg := st.svc.traces; reg != nil {
		if ds, err := trace.NewDirSinkLimited(filepath.Join(dir, "traces"), 4, 32); err == nil {
			for _, tr := range reg.Traces() {
				ds.Add(tr)
			}
		}
	}
	if logger := st.svc.cfg.Logger; logger != nil {
		logger.Info("slo evidence captured",
			slog.String("objective", ev.Objective),
			slog.String("dir", dir))
	}
}
