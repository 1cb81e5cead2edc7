// Command mapserve serves the joint (S, Π) mapping search, conflict
// checking, systolic simulation, and independent mapping certification
// of this repository over HTTP.
//
// Usage:
//
//	mapserve -addr :8080 -pool 2 -queue 64 -cache 1024
//
// Endpoints:
//
//	POST /v1/map       — time-optimal conflict-free joint mapping
//	POST /v1/conflict  — conflict-freeness decision for a mapping matrix
//	POST /v1/simulate  — cycle-accurate systolic simulation
//	POST /v1/verify    — independent certificate for a given (S, Π)
//	GET  /metrics      — Prometheus text metrics
//	GET  /healthz      — liveness probe (JSON status)
//
// With -peers "a=http://hostA:8080,b=http://hostB:8080" and -node-id
// the server joins a mapserve cluster: the canonical cache is sharded
// over a consistent-hash ring, cache misses are forwarded to the key's
// owner (POST /peer/v1/lookup) and filled locally, and a distributed
// singleflight guarantees each problem is searched at most once
// cluster-wide. POST /v1/batch answers many map queries per request.
//
// With -slo-availability and/or -slo-latency-p99 the server evaluates
// rolling burn-rate SLOs over the public sync endpoints: a breach logs
// one structured alert line, flips /healthz to "degraded", and (with
// -slo-evidence-dir) captures a CPU profile plus the slowest traces.
// GET /v1/cluster/status merges every node's snapshot — counters, SLO
// verdicts, per-tenant usage (X-Mapserve-Tenant) — into a fleet view.
//
// With -pprof ADDR a private debug listener additionally serves
// /debug/pprof/ and the /debug/requests trace inspector (the last
// -trace-buffer completed request traces as HTML, JSON, or Perfetto
// exports); -trace-dir DIR keeps the slowest -trace-slowest traces per
// endpoint on disk as Perfetto JSON.
//
// Identical problems — including axis-permuted restatements of one
// problem — are answered from a canonical LRU cache, and concurrent
// identical requests share a single search (see internal/service).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/service"
	"lodim/internal/slo"
	"lodim/internal/trace"
)

// config is the parsed and validated command line.
type config struct {
	addr         string
	pprofAddr    string
	logFormat    string
	pool         int
	queue        int
	cacheSize    int
	workers      int
	defTimeout   time.Duration
	maxTimeout   time.Duration
	drain        time.Duration
	traceBuffer  int
	traceDir     string
	traceSlowest int

	// Async job tier (empty jobsDir = disabled).
	jobsDir    string
	jobWorkers int
	jobQueue   int

	// SLO engine (both objectives zero = disabled).
	sloAvailability float64
	sloLatencyP99   time.Duration
	sloWindow       string
	sloEvidenceDir  string
	traceMaxFiles   int

	// Cluster membership (all empty = single node).
	nodeID    string
	advertise string
	peers     []cluster.Member
	vnodes    int
}

// parseFlags parses args (without the program name) into a validated
// config. Kept apart from main so tests can drive the full flag surface
// without exiting the process.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("mapserve", flag.ContinueOnError)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "access-log format: text or json")
	fs.IntVar(&cfg.pool, "pool", 0, "max concurrent searches (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.queue, "queue", 64, "max requests waiting for a search slot before 429 (-1 = no queue)")
	fs.IntVar(&cfg.cacheSize, "cache", 1024, "canonical result cache size in entries")
	fs.IntVar(&cfg.workers, "workers", 0, "goroutines per joint search (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.defTimeout, "timeout", 30*time.Second, "default per-request search deadline")
	fs.DurationVar(&cfg.maxTimeout, "max-timeout", 2*time.Minute, "ceiling on request-supplied deadlines")
	fs.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful shutdown grace period")
	fs.IntVar(&cfg.traceBuffer, "trace-buffer", 64, "completed request traces kept for the /debug/requests inspector (0 = tracing off)")
	fs.StringVar(&cfg.traceDir, "trace-dir", "", "export the slowest traces per endpoint as Perfetto JSON into this directory (empty = disabled)")
	fs.IntVar(&cfg.traceSlowest, "trace-slowest", 8, "slowest traces retained per endpoint in -trace-dir")
	fs.IntVar(&cfg.traceMaxFiles, "trace-max-files", 0, "total trace files allowed in -trace-dir across all endpoints, oldest evicted first (0 = unlimited)")
	fs.Float64Var(&cfg.sloAvailability, "slo-availability", 0, "availability SLO target in (0,1), e.g. 0.999 (0 = objective disabled)")
	fs.DurationVar(&cfg.sloLatencyP99, "slo-latency-p99", 0, "p99 latency SLO threshold, e.g. 500ms (0 = objective disabled)")
	fs.StringVar(&cfg.sloWindow, "slo-window", "5m", "slow SLO evaluation window: "+strings.Join(slo.SlowWindowNames(), ", "))
	fs.StringVar(&cfg.sloEvidenceDir, "slo-evidence-dir", "", "write a breach evidence bundle (CPU profile + slowest traces) into this directory (empty = disabled)")
	fs.StringVar(&cfg.jobsDir, "jobs-dir", "", "spool directory for the durable async job tier (empty = /v1/jobs disabled)")
	fs.IntVar(&cfg.jobWorkers, "job-workers", 0, "async job executor goroutines (0 = default)")
	fs.IntVar(&cfg.jobQueue, "job-queue", 0, "queued jobs allowed per tenant before 429 (0 = default)")
	var peersFlag string
	fs.StringVar(&cfg.nodeID, "node-id", "", "this node's cluster identity (required with -peers)")
	fs.StringVar(&cfg.advertise, "advertise", "", "URL peers use to reach this node, e.g. http://10.0.0.1:8080 (required with -peers)")
	fs.StringVar(&peersFlag, "peers", "", "comma-separated cluster membership as id=url pairs, including this node (empty = single node)")
	fs.IntVar(&cfg.vnodes, "vnodes", cluster.DefaultVNodes, "virtual nodes per member on the consistent-hash ring")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.addr == "" {
		return nil, errors.New("-addr must not be empty")
	}
	if cfg.pool < 0 {
		return nil, fmt.Errorf("-pool must be >= 0, got %d", cfg.pool)
	}
	if cfg.queue < -1 {
		return nil, fmt.Errorf("-queue must be >= -1, got %d", cfg.queue)
	}
	if cfg.cacheSize < 0 {
		return nil, fmt.Errorf("-cache must be >= 0, got %d", cfg.cacheSize)
	}
	if cfg.workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0, got %d", cfg.workers)
	}
	if cfg.defTimeout <= 0 {
		return nil, fmt.Errorf("-timeout must be positive, got %s", cfg.defTimeout)
	}
	if cfg.maxTimeout < cfg.defTimeout {
		return nil, fmt.Errorf("-max-timeout (%s) must be >= -timeout (%s)", cfg.maxTimeout, cfg.defTimeout)
	}
	if cfg.drain < 0 {
		return nil, fmt.Errorf("-drain must be >= 0, got %s", cfg.drain)
	}
	if cfg.logFormat != "text" && cfg.logFormat != "json" {
		return nil, fmt.Errorf("-log-format must be text or json, got %q", cfg.logFormat)
	}
	if cfg.traceBuffer < 0 {
		return nil, fmt.Errorf("-trace-buffer must be >= 0, got %d", cfg.traceBuffer)
	}
	if cfg.traceSlowest < 1 {
		return nil, fmt.Errorf("-trace-slowest must be >= 1, got %d", cfg.traceSlowest)
	}
	if cfg.traceDir != "" && cfg.traceBuffer == 0 {
		return nil, errors.New("-trace-dir requires tracing: set -trace-buffer > 0")
	}
	if cfg.traceMaxFiles < 0 {
		return nil, fmt.Errorf("-trace-max-files must be >= 0, got %d", cfg.traceMaxFiles)
	}
	if cfg.traceMaxFiles > 0 && cfg.traceDir == "" {
		return nil, errors.New("-trace-max-files requires -trace-dir")
	}
	if cfg.sloAvailability < 0 || cfg.sloAvailability >= 1 {
		if cfg.sloAvailability != 0 {
			return nil, fmt.Errorf("-slo-availability must be in (0,1), got %g", cfg.sloAvailability)
		}
	}
	if cfg.sloLatencyP99 < 0 {
		return nil, fmt.Errorf("-slo-latency-p99 must be >= 0, got %s", cfg.sloLatencyP99)
	}
	if !slo.ValidSlowWindow(cfg.sloWindow) {
		return nil, fmt.Errorf("-slo-window must be one of %s, got %q", strings.Join(slo.SlowWindowNames(), ", "), cfg.sloWindow)
	}
	if cfg.sloEvidenceDir != "" {
		if cfg.sloAvailability == 0 && cfg.sloLatencyP99 == 0 {
			return nil, errors.New("-slo-evidence-dir requires an objective: set -slo-availability or -slo-latency-p99")
		}
		// Probe the evidence directory now: a bad path should be a flag
		// error, not a silently dropped capture at breach time.
		if err := os.MkdirAll(cfg.sloEvidenceDir, 0o755); err != nil {
			return nil, fmt.Errorf("-slo-evidence-dir: %w", err)
		}
	}
	if err := service.ValidateSLOConfig(cfg.sloConfig()); err != nil {
		return nil, fmt.Errorf("slo flags: %w", err)
	}
	if cfg.jobWorkers < 0 {
		return nil, fmt.Errorf("-job-workers must be >= 0, got %d", cfg.jobWorkers)
	}
	if cfg.jobQueue < 0 {
		return nil, fmt.Errorf("-job-queue must be >= 0, got %d", cfg.jobQueue)
	}
	if cfg.jobsDir == "" && (cfg.jobWorkers != 0 || cfg.jobQueue != 0) {
		return nil, errors.New("-job-workers and -job-queue require -jobs-dir")
	}
	if cfg.jobsDir != "" {
		// Probe the spool now: a bad path should be a flag error (exit
		// 2), not a panic inside service.New.
		if err := os.MkdirAll(cfg.jobsDir, 0o755); err != nil {
			return nil, fmt.Errorf("-jobs-dir: %w", err)
		}
	}
	if err := parseClusterFlags(cfg, peersFlag); err != nil {
		return nil, err
	}
	return cfg, nil
}

// sloConfig assembles the service-facing SLO knobs, nil when no
// objective was asked for.
func (c *config) sloConfig() *service.SLOConfig {
	if c.sloAvailability == 0 && c.sloLatencyP99 == 0 {
		return nil
	}
	return &service.SLOConfig{
		Availability: c.sloAvailability,
		LatencyP99:   c.sloLatencyP99,
		Window:       c.sloWindow,
		EvidenceDir:  c.sloEvidenceDir,
	}
}

// parseClusterFlags validates the membership trio: -peers lists every
// member as id=url pairs (this node included, so one list can be copied
// to every node), -node-id picks this node out of the list, and
// -advertise must agree with the list's entry for it. Building the ring
// here surfaces duplicate IDs or an empty membership as a flag error
// (exit 2) instead of a later panic in service.New.
func parseClusterFlags(cfg *config, peersFlag string) error {
	if peersFlag == "" {
		if cfg.nodeID != "" || cfg.advertise != "" {
			return errors.New("-node-id/-advertise require -peers")
		}
		return nil
	}
	if cfg.nodeID == "" {
		return errors.New("-peers requires -node-id")
	}
	if cfg.vnodes < 1 {
		return fmt.Errorf("-vnodes must be >= 1, got %d", cfg.vnodes)
	}
	var members []cluster.Member
	selfListed := false
	for _, pair := range strings.Split(peersFlag, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		if !ok || id == "" || url == "" {
			return fmt.Errorf("-peers entry %q is not id=url", pair)
		}
		m := cluster.Member{ID: id, URL: strings.TrimSuffix(url, "/")}
		if id == cfg.nodeID {
			selfListed = true
			if cfg.advertise == "" {
				cfg.advertise = m.URL
			} else if strings.TrimSuffix(cfg.advertise, "/") != m.URL {
				return fmt.Errorf("-advertise %q disagrees with the -peers entry for %s (%s)", cfg.advertise, id, m.URL)
			}
			continue
		}
		members = append(members, m)
	}
	if !selfListed && cfg.advertise == "" {
		return fmt.Errorf("-peers does not list -node-id %q and no -advertise was given", cfg.nodeID)
	}
	cfg.advertise = strings.TrimSuffix(cfg.advertise, "/")
	cfg.peers = members
	all := append([]cluster.Member{{ID: cfg.nodeID, URL: cfg.advertise}}, members...)
	if _, err := cluster.NewRing(cfg.vnodes, all...); err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	return nil
}

// newLogger builds the structured access logger for the chosen format.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// pprofHandler builds an explicit mux for the private debug listener:
// the profiling endpoints plus the /debug/requests trace inspector.
// Both expose request internals, so they are served only on the
// dedicated -pprof address, never on the service address.
func pprofHandler(requests http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if requests != nil {
		mux.Handle("/debug/requests", requests)
	}
	return mux
}

// run starts the server and blocks until a signal arrives on sigCh or
// the listener fails. ready (optional) is called with the bound service
// and pprof addresses once the listeners are up — with
// "-addr 127.0.0.1:0" this is how tests learn the ephemeral ports
// (pprofAddr is "" when -pprof is disabled).
func run(cfg *config, sigCh <-chan os.Signal, ready func(addr, pprofAddr string)) error {
	scfg := service.Config{
		Pool:           cfg.pool,
		Queue:          cfg.queue,
		CacheSize:      cfg.cacheSize,
		SearchWorkers:  cfg.workers,
		DefaultTimeout: cfg.defTimeout,
		MaxTimeout:     cfg.maxTimeout,
		Logger:         newLogger(cfg.logFormat),
		TraceBuffer:    cfg.traceBuffer,
		SLO:            cfg.sloConfig(),
	}
	if scfg.SLO != nil {
		log.Printf("mapserve: slo engine on (availability %g, latency-p99 %s, window %s)",
			cfg.sloAvailability, cfg.sloLatencyP99, cfg.sloWindow)
	}
	if cfg.jobsDir != "" {
		scfg.Jobs = &service.JobsConfig{
			Dir:            cfg.jobsDir,
			Workers:        cfg.jobWorkers,
			PerTenantQueue: cfg.jobQueue,
		}
		log.Printf("mapserve: async job tier spooling to %s", cfg.jobsDir)
	}
	if cfg.nodeID != "" {
		scfg.Cluster = &service.ClusterConfig{
			Self:   cluster.Member{ID: cfg.nodeID, URL: cfg.advertise},
			Peers:  cfg.peers,
			VNodes: cfg.vnodes,
		}
		log.Printf("mapserve: cluster node %s advertising %s with %d peer(s)", cfg.nodeID, cfg.advertise, len(cfg.peers))
	}
	svc := service.New(scfg)
	if cfg.traceDir != "" {
		ds, err := trace.NewDirSinkLimited(cfg.traceDir, cfg.traceSlowest, cfg.traceMaxFiles)
		if err != nil {
			svc.Close()
			return fmt.Errorf("trace dir: %w", err)
		}
		svc.Tracer().AddSink(ds.Add)
		log.Printf("mapserve: exporting the %d slowest traces per endpoint to %s", cfg.traceSlowest, cfg.traceDir)
	}
	srv := &http.Server{
		Handler:           service.NewHandler(svc),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		svc.Close()
		return err
	}

	pprofAddr := ""
	if cfg.pprofAddr != "" {
		pprofLn, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			ln.Close()
			svc.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		pprofSrv := &http.Server{
			Handler:           pprofHandler(svc.DebugHandler()),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go pprofSrv.Serve(pprofLn)
		defer pprofSrv.Close()
		pprofAddr = pprofLn.Addr().String()
		log.Printf("mapserve: pprof listening on %s", pprofAddr)
	}

	log.Printf("mapserve: listening on %s (pool %d, queue %d, cache %d)", ln.Addr(), cfg.pool, cfg.queue, cfg.cacheSize)
	if ready != nil {
		ready(ln.Addr().String(), pprofAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		svc.Close()
		return err
	case sig := <-sigCh:
		log.Printf("mapserve: %s received, draining for up to %s", sig, cfg.drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mapserve: shutdown: %v", err)
	}
	svc.Close()
	log.Printf("mapserve: bye")
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "mapserve:", err)
		os.Exit(2)
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	if err := run(cfg, sigCh, nil); err != nil {
		fmt.Fprintln(os.Stderr, "mapserve:", err)
		os.Exit(1)
	}
}
