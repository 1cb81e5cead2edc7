package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lodim/internal/cluster"
	"lodim/internal/service"
)

// node is one real mapserve node: service.New behind service.NewHandler
// on a loopback listener.
type node struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	served chan struct{} // closed when Serve has returned
}

// startNodes starts n nodes; with n > 1 they form one cluster, built as
// maploadgen -inproc builds it: listeners are bound first so that every
// node knows the whole membership. cfg supplies each node's settings.
func startNodes(n int, cfg service.Config) ([]*node, error) {
	lns := make([]net.Listener, n)
	members := make([]cluster.Member, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		members[i] = cluster.Member{ID: fmt.Sprintf("node%d", i), URL: "http://" + ln.Addr().String()}
	}
	nodes := make([]*node, n)
	for i := range nodes {
		c := cfg
		if n > 1 {
			c.Cluster = &service.ClusterConfig{Self: members[i], Peers: members}
		}
		svc := service.New(c)
		nd := &node{svc: svc, srv: &http.Server{Handler: service.NewHandler(svc)}, url: members[i].URL, served: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(nd.served)
			nd.srv.Serve(ln)
		}(lns[i])
		nodes[i] = nd
	}
	return nodes, nil
}

// stopNodes closes the listeners and connections, waits for the serve
// loops to return and drains each service.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		nd.srv.Close()
		<-nd.served
	}
	for _, nd := range nodes {
		nd.svc.Close()
	}
}

// nodeConfig is the service configuration of every node: defaults (pool
// and search fan-out at GOMAXPROCS, tracing off) plus a cache size and,
// in traced runs, the access-log capture.
func nodeConfig(cacheSize int, log *accessLog) service.Config {
	cfg := service.Config{CacheSize: cacheSize}
	if log != nil {
		cfg.Logger = slog.New(log)
	}
	return cfg
}

// newClient returns the benchmark's HTTP client: keep-alive connections
// for the senders and the scraper, and a timeout well past the server's
// 30s default deadline so a hung request counts as an error instead of
// hanging the run.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 90 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		},
	}
}

// counters is one /metrics scrape: sample name with labels → value.
type counters map[string]float64

// scrape fetches and parses a node's GET /metrics.
func scrape(c *http.Client, url string) (counters, time.Duration, error) {
	start := time.Now()
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return nil, took, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	m, err := parseMetrics(buf.Bytes())
	return m, took, err
}

// parseMetrics reads the Prometheus text exposition: one
// "name{labels} value" sample per line, comments skipped, exemplar
// suffixes (" # {...} v ts") dropped.
func parseMetrics(text []byte) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		line, _, _ = strings.Cut(line, " # ")
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// delta returns after − before for every sample in after.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func (c counters) addAll(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// scrapeAll scrapes every node and sums the samples.
func scrapeAll(c *http.Client, nodes []*node) (counters, error) {
	sum := counters{}
	for _, nd := range nodes {
		m, _, err := scrape(c, nd.url)
		if err != nil {
			return nil, err
		}
		sum.addAll(m)
	}
	return sum, nil
}
