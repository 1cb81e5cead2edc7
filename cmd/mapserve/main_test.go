package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.queue != 64 || cfg.cacheSize != 1024 {
		t.Errorf("defaults off: %+v", cfg)
	}
	if cfg.defTimeout != 30*time.Second || cfg.maxTimeout != 2*time.Minute || cfg.drain != 10*time.Second {
		t.Errorf("duration defaults off: %+v", cfg)
	}
	if cfg.pprofAddr != "" || cfg.logFormat != "text" {
		t.Errorf("observability defaults off: pprof=%q log-format=%q", cfg.pprofAddr, cfg.logFormat)
	}
	if cfg.traceBuffer != 64 || cfg.traceDir != "" || cfg.traceSlowest != 8 || cfg.traceMaxFiles != 0 {
		t.Errorf("trace defaults off: buffer=%d dir=%q slowest=%d max-files=%d", cfg.traceBuffer, cfg.traceDir, cfg.traceSlowest, cfg.traceMaxFiles)
	}
	if cfg.sloAvailability != 0 || cfg.sloLatencyP99 != 0 || cfg.sloWindow != "5m" || cfg.sloEvidenceDir != "" {
		t.Errorf("slo defaults off: %+v", cfg)
	}
	if cfg.sloConfig() != nil {
		t.Error("slo engine configured with no objective flags")
	}
}

func TestParseFlagsSLO(t *testing.T) {
	dir := t.TempDir()
	cfg, err := parseFlags([]string{
		"-slo-availability", "0.999", "-slo-latency-p99", "250ms",
		"-slo-window", "30m", "-slo-evidence-dir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	slo := cfg.sloConfig()
	if slo == nil {
		t.Fatal("sloConfig() = nil with both objectives set")
	}
	if slo.Availability != 0.999 || slo.LatencyP99 != 250*time.Millisecond || slo.Window != "30m" || slo.EvidenceDir != dir {
		t.Errorf("sloConfig() = %+v", slo)
	}
}

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"empty addr", []string{"-addr", ""}},
		{"negative pool", []string{"-pool", "-1"}},
		{"queue below -1", []string{"-queue", "-2"}},
		{"negative cache", []string{"-cache", "-5"}},
		{"negative workers", []string{"-workers", "-1"}},
		{"zero timeout", []string{"-timeout", "0s"}},
		{"max below default", []string{"-timeout", "1m", "-max-timeout", "10s"}},
		{"negative drain", []string{"-drain", "-1s"}},
		{"bad log format", []string{"-log-format", "xml"}},
		{"positional junk", []string{"extra"}},
		{"unknown flag", []string{"-no-such-flag"}},
		{"negative trace buffer", []string{"-trace-buffer", "-1"}},
		{"zero trace slowest", []string{"-trace-slowest", "0"}},
		{"trace dir without tracing", []string{"-trace-buffer", "0", "-trace-dir", "/tmp/x"}},
		{"negative job workers", []string{"-jobs-dir", "/tmp/spool", "-job-workers", "-1"}},
		{"negative job queue", []string{"-jobs-dir", "/tmp/spool", "-job-queue", "-1"}},
		{"job workers without spool", []string{"-job-workers", "2"}},
		{"job queue without spool", []string{"-job-queue", "8"}},
		{"unusable jobs dir", []string{"-jobs-dir", "/dev/null/spool"}},
		{"negative trace max files", []string{"-trace-max-files", "-1"}},
		{"trace max files without dir", []string{"-trace-max-files", "5"}},
		{"availability above 1", []string{"-slo-availability", "1.5"}},
		{"availability exactly 1", []string{"-slo-availability", "1"}},
		{"negative availability", []string{"-slo-availability", "-0.1"}},
		{"negative latency slo", []string{"-slo-latency-p99", "-1s"}},
		{"bad slo window", []string{"-slo-availability", "0.99", "-slo-window", "2h"}},
		{"evidence dir without objective", []string{"-slo-evidence-dir", "/tmp/x"}},
		{"unusable evidence dir", []string{"-slo-availability", "0.99", "-slo-evidence-dir", "/dev/null/x"}},
	}
	for _, c := range cases {
		if _, err := parseFlags(c.args); err == nil {
			t.Errorf("%s: accepted %v", c.name, c.args)
		}
	}
}

// TestRunServesAndShutsDown boots the real server on an ephemeral port,
// exercises a request end to end, then drains it via the signal path —
// the same lifecycle main drives.
func TestRunServesAndShutsDown(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-pool", "1", "-drain", "5s",
		"-pprof", "127.0.0.1:0", "-log-format", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	sigCh := make(chan os.Signal, 1)
	type addrs struct{ main, pprof string }
	addrCh := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(cfg, sigCh, func(addr, pprofAddr string) { addrCh <- addrs{addr, pprofAddr} })
	}()

	var addr, pprofAddr string
	select {
	case a := <-addrCh:
		addr, pprofAddr = a.main, a.pprof
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	// The pprof endpoints answer on their own listener and only there.
	if pprofAddr == "" {
		t.Fatal("pprof address not reported despite -pprof")
	}
	resp, err = http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof cmdline: %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("pprof reachable on the service address; it must stay on the -pprof listener")
	}

	body := strings.NewReader(`{"algorithm":"matmul","sizes":[2],"s":[[1,1,-1]],"pi":[1,2,1]}`)
	resp, err = http.Post("http://"+addr+"/v1/verify", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("verify over the real server: %d %s", resp.StatusCode, data)
	}
	var vr struct {
		Valid bool `json:"valid"`
	}
	if err := json.Unmarshal(data, &vr); err != nil || !vr.Valid {
		t.Errorf("verify response: valid=%v err=%v (%s)", vr.Valid, err, data)
	}

	sigCh <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}

// TestRunTraceSurfaces: with tracing on, the /debug/requests inspector
// answers on the private pprof listener only, and -trace-dir collects
// Perfetto exports of completed requests.
func TestRunTraceSurfaces(t *testing.T) {
	traceDir := t.TempDir()
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-pool", "1", "-drain", "5s",
		"-pprof", "127.0.0.1:0", "-trace-buffer", "8",
		"-trace-dir", traceDir, "-trace-slowest", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	sigCh := make(chan os.Signal, 1)
	type addrs struct{ main, pprof string }
	addrCh := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(cfg, sigCh, func(addr, pprofAddr string) { addrCh <- addrs{addr, pprofAddr} })
	}()
	var addr, pprofAddr string
	select {
	case a := <-addrCh:
		addr, pprofAddr = a.main, a.pprof
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	defer func() {
		sigCh <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	body := strings.NewReader(`{"algorithm":"matmul","sizes":[2],"dims":1}`)
	resp, err := http.Post("http://"+addr+"/v1/map", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("map: %d", resp.StatusCode)
	}
	if resp.Header.Get("Traceparent") == "" {
		t.Error("traced response carries no traceparent header")
	}

	// The inspector lists the trace — on the pprof listener only. The
	// root span ends just after the response, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get("http://" + pprofAddr + "/debug/requests?format=json")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var list struct {
			Traces []struct {
				Name string `json:"name"`
			} `json:"traces"`
		}
		if err := json.Unmarshal(data, &list); err != nil {
			t.Fatalf("inspector list: %v (%s)", err, data)
		}
		if len(list.Traces) > 0 {
			if list.Traces[0].Name != "map" {
				t.Errorf("inspector lists %q, want map", list.Traces[0].Name)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trace never appeared in the inspector")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get("http://" + addr + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("/debug/requests reachable on the service address; it must stay on the -pprof listener")
	}

	// The directory sink exported the request as <endpoint>-<id>.json.
	for deadline := time.Now().Add(5 * time.Second); ; {
		files, err := os.ReadDir(traceDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) > 0 {
			if !strings.HasPrefix(files[0].Name(), "map-") || !strings.HasSuffix(files[0].Name(), ".json") {
				t.Errorf("trace-dir file %q, want map-<traceid>.json", files[0].Name())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trace-dir never received an export")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunListenFailure: a taken port must surface as an error, not a
// hang.
func TestRunListenFailure(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sigCh := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, sigCh, func(a, _ string) { addrCh <- a }) }()
	addr := <-addrCh
	defer func() {
		sigCh <- syscall.SIGTERM
		<-done
	}()

	taken, err := parseFlags([]string{"-addr", addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(taken, make(chan os.Signal), nil); err == nil {
		t.Error("second bind on one address succeeded")
	}
}

func TestParseClusterFlags(t *testing.T) {
	peers := "a=http://h1:1,b=http://h2:2,c=http://h3:3"
	cfg, err := parseFlags([]string{"-node-id", "b", "-peers", peers})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.nodeID != "b" || cfg.advertise != "http://h2:2" {
		t.Errorf("self = %q @ %q, want b @ http://h2:2", cfg.nodeID, cfg.advertise)
	}
	// cfg.peers holds the other members; self rides separately.
	if len(cfg.peers) != 2 || cfg.peers[0].ID != "a" || cfg.peers[1].ID != "c" {
		t.Errorf("peers = %v, want members a and c", cfg.peers)
	}

	// A node absent from -peers must advertise explicitly.
	cfg, err = parseFlags([]string{"-node-id", "d", "-advertise", "http://h4:4", "-peers", peers})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.advertise != "http://h4:4" || len(cfg.peers) != 3 {
		t.Errorf("external self: %+v", cfg)
	}

	bad := []struct {
		name string
		args []string
	}{
		{"peers without node-id", []string{"-peers", peers}},
		{"node-id without peers", []string{"-node-id", "a"}},
		{"advertise without peers", []string{"-advertise", "http://x:1"}},
		{"self unlisted, no advertise", []string{"-node-id", "zz", "-peers", peers}},
		{"advertise disagrees with list", []string{"-node-id", "b", "-advertise", "http://other:9", "-peers", peers}},
		{"malformed pair", []string{"-node-id", "a", "-peers", "a=http://h1:1,b"}},
		{"duplicate id", []string{"-node-id", "a", "-peers", "a=http://h1:1,a=http://h2:2"}},
		{"zero vnodes", []string{"-node-id", "b", "-peers", peers, "-vnodes", "0"}},
	}
	for _, c := range bad {
		if _, err := parseFlags(c.args); err == nil {
			t.Errorf("%s: accepted %v", c.name, c.args)
		}
	}
}

// TestRunJobTier: a server started with -jobs-dir serves the async job
// endpoints end to end — submit, poll to done, replay the result — and
// drains cleanly with the job tier active.
func TestRunJobTier(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-pool", "1", "-drain", "5s",
		"-jobs-dir", filepath.Join(t.TempDir(), "spool"),
		"-job-workers", "1", "-job-queue", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	sigCh := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(cfg, sigCh, func(addr, _ string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	body := strings.NewReader(`{"map":{"bounds":[2,3,4],"dependencies":[[1,0,0],[0,1,0],[0,0,1]],"dims":1}}`)
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var jr struct {
		ID    string `json:"job_id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(data, &jr); err != nil || jr.ID == "" {
		t.Fatalf("submit response: %v (%s)", err, data)
	}

	deadline := time.Now().Add(10 * time.Second)
	for jr.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jr.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get("http://" + addr + "/v1/jobs/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("poll: %d %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &jr); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get("http://" + addr + "/v1/jobs/" + jr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var mr struct {
		TotalTime int64 `json:"total_time"`
	}
	if resp.StatusCode != 200 || json.Unmarshal(data, &mr) != nil || mr.TotalTime == 0 {
		t.Fatalf("result: %d %s", resp.StatusCode, data)
	}

	sigCh <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}
