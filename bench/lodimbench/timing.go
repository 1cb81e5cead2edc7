package main

import (
	"context"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The server's per-request stage taxonomy, in the order it reports
// stages. The names are the public vocabulary of the X-Mapserve-Timing
// header and of the access log's "stages" group ("<stage>_ms").
const (
	stDecode = iota
	stCanonicalize
	stQueue
	stForward
	stSearch
	stTranslate
	stEncode
	numStages
)

var stageNames = [numStages]string{"decode", "canonicalize", "queue", "forward", "search", "translate", "encode"}

// stages holds one request's stage durations in milliseconds; a stage
// the request never entered reads 0.
type stages [numStages]float64

func (s *stages) add(o *stages) {
	for i := range s {
		s[i] += o[i]
	}
}

func (s *stages) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func stageIndex(name string) int {
	for i, n := range stageNames {
		if n == name {
			return i
		}
	}
	return -1
}

// parseTiming reads an X-Mapserve-Timing header, which uses the
// Server-Timing syntax: "decode;dur=0.041, search;dur=12.532" with
// durations in milliseconds. Unknown stages and malformed entries are
// skipped; ok is false when any entry could not be read.
func parseTiming(h string) (st stages, ok bool) {
	ok = true
	for h != "" {
		var entry string
		entry, h, _ = strings.Cut(h, ",")
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, params, found := strings.Cut(entry, ";")
		idx := stageIndex(name)
		dur, hasDur := strings.CutPrefix(params, "dur=")
		v, err := strconv.ParseFloat(dur, 64)
		if !found || idx < 0 || !hasDur || err != nil {
			ok = false
			continue
		}
		st[idx] += v
	}
	return st, ok
}

// accessRecord is one access-log line of an instrumented endpoint.
type accessRecord struct {
	id       string
	endpoint string
	status   int
	totalMS  float64
	stages   stages
}

// accessLog is a slog.Handler capturing the service's per-request
// access-log lines ("request" records with id, total and the stages
// group) in memory. It is installed as Config.Logger in traced runs
// only; lines are matched to client requests by X-Mapserve-Request
// after the phase ends, because the server logs after it has written
// the response.
type accessLog struct {
	mu   sync.Mutex
	recs []accessRecord
}

func (l *accessLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *accessLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *accessLog) WithGroup(string) slog.Handler            { return l }

func (l *accessLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "request" {
		return nil // job lifecycle lines share the logger
	}
	rec, ok := parseAccessRecord(r)
	if !ok {
		return nil
	}
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
	return nil
}

// parseAccessRecord extracts the fields lodimbench uses from one
// access-log record; ok is false when the id is missing.
func parseAccessRecord(r slog.Record) (rec accessRecord, ok bool) {
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "id":
			rec.id = a.Value.String()
		case "endpoint":
			rec.endpoint = a.Value.String()
		case "status":
			rec.status = int(a.Value.Int64())
		case "total":
			rec.totalMS = float64(a.Value.Duration()) / float64(time.Millisecond)
		case "stages":
			for _, s := range a.Value.Group() {
				name, isMS := strings.CutSuffix(s.Key, "_ms")
				if idx := stageIndex(name); isMS && idx >= 0 {
					rec.stages[idx] = s.Value.Float64()
				}
			}
		}
		return true
	})
	return rec, rec.id != ""
}

// take returns the captured records by request id and clears the log.
func (l *accessLog) take() map[string]accessRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]accessRecord, len(l.recs))
	for _, r := range l.recs {
		out[r.id] = r
	}
	l.recs = nil
	return out
}
