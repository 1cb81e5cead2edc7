package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var fixedTime = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

// frame returns r as one framed spool log line.
func frame(t *testing.T, r *record) []byte {
	t.Helper()
	st := &store{}
	st.enc = json.NewEncoder(&st.buf)
	line, err := st.encode(r)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), line...)
}

// assertOnlyLog fails unless the spool directory holds exactly the log.
func assertOnlyLog(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != logName {
		t.Fatalf("spool directory holds %v, want only %s", names, logName)
	}
}

// blockExec holds every attempt until its context is cancelled, so a
// reopened spool's resumed jobs stay where Open put them.
func blockExec(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestSpoolIsOneFile: however many jobs run, no transition creates a
// file of its own — the spool directory holds exactly the log, while
// the manager runs and after it closes.
func TestSpoolIsOneFile(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
		return []byte("{}\n"), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		sn, err := m.Submit("map", "", fmt.Sprintf("k%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, sn.ID, StateDone)
	}
	assertOnlyLog(t, dir)
	m.Close()
	assertOnlyLog(t, dir)

	// Reopening compacts the log to one line per job.
	m, err = Open(Config{Dir: dir, Exec: blockExec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != n {
		t.Fatalf("compacted log holds %d lines, want %d", got, n)
	}
	assertOnlyLog(t, dir)
}

// TestLegacySpoolMigrated: a spool written as one indented <id>.json
// file per job is adopted on Open — a done job keeps its result byte for
// byte, a queued one resumes — and folded into the log; the legacy
// files, a corrupt one and a stray temp file are removed.
func TestLegacySpoolMigrated(t *testing.T) {
	dir := t.TempDir()
	result := "{\n  \"total_time\": 25\n}\n"
	done := &job{id: ID("map", "kl1"), kind: "map", key: "kl1", payload: json.RawMessage(`{"a":1}`), state: StateDone, attempts: 1, result: []byte(result)}
	done.appendEvent(StateQueued, "submitted", fixedTime)
	done.appendEvent(StateRunning, "", fixedTime)
	done.appendEvent(StateDone, "", fixedTime)
	queued := &job{id: ID("map", "kl2"), kind: "map", key: "kl2", payload: json.RawMessage(`{"b":2}`), state: StateQueued}
	queued.appendEvent(StateQueued, "submitted", fixedTime)
	for _, j := range []*job{done, queued} {
		data, err := json.MarshalIndent(j.record(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFile(filepath.Join(dir, j.id+".json"), append(data, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeFile(filepath.Join(dir, "jbad.json"), []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(filepath.Join(dir, queued.id+".tmp-9"), []byte("x")); err != nil {
		t.Fatal(err)
	}

	payloads := make(chan string, 1)
	m, err := Open(Config{Dir: dir, Workers: 1, Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
		payloads <- string(payload)
		return []byte("{}\n"), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	assertOnlyLog(t, dir)
	if sn, ok := m.Get(done.id); !ok || sn.State != StateDone || string(sn.Result) != result {
		t.Fatalf("legacy done job not adopted intact: ok=%v %+v", ok, sn)
	}
	waitState(t, m, queued.id, StateDone)
	var p map[string]int
	if err := json.Unmarshal([]byte(<-payloads), &p); err != nil || p["b"] != 2 {
		t.Fatalf("resumed legacy job ran with payload %v (%v)", p, err)
	}
	m.Close()

	// The migrated jobs now live in the log alone.
	m, err = Open(Config{Dir: dir, Exec: blockExec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, id := range []string{done.id, queued.id} {
		if sn, ok := m.Get(id); !ok || sn.State != StateDone {
			t.Fatalf("migrated job %s lost after a second Open: ok=%v %+v", id, ok, sn)
		}
	}
	assertOnlyLog(t, dir)
}

// failingWriter writes the first n bytes of the next Write, then fails.
type failingWriter struct {
	f *os.File
	n int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	k, _ := w.f.Write(p[:w.n])
	return k, errors.New("disk full")
}

// TestFailedAppendDoesNotCorruptNext: an append that fails part way
// leaves a fragment at the log's tail; the next append truncates it
// away first, so its record lands whole instead of gluing onto the
// fragment.
func TestFailedAppendDoesNotCorruptNext(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := &job{id: ID("map", "ka"), kind: "map", key: "ka", state: StateQueued}
	b := &job{id: ID("map", "kb"), kind: "map", key: "kb", state: StateQueued}
	st.w = &failingWriter{f: st.f, n: 20}
	if err := st.append(a.record()); err == nil {
		t.Fatal("append through a failing writer reported success")
	}
	st.w = st.f
	if err := st.append(b.record()); err != nil {
		t.Fatal(err)
	}
	st.close()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if want := frame(t, b.record()); !bytes.Equal(data, want) {
		t.Fatalf("log after a failed append =\n%q\nwant only the next record\n%q", data, want)
	}
	st, recs, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.close()
	if len(recs) != 1 || recs[0].ID != b.id {
		t.Fatalf("replayed %d records, want only %s", len(recs), b.id)
	}
}

// spoolLine is one record of a spool log and where its line sits.
type spoolLine struct {
	start, end int // end indexes the line's newline
	rec        *record
}

// TestSpoolCrashInjection damages a spool of jobs in every state — by
// truncating the log at every byte offset and by flipping one byte at
// five places in every record — and reopens it after each damage. Open
// must never fail, no job may come from a damaged line, and every job
// must come back in the state of its last record that survived intact.
func TestSpoolCrashInjection(t *testing.T) {
	full, lines, ids := buildMixedSpool(t)
	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	check := func(damage string, log []byte, lost func(i int, l spoolLine) bool) {
		t.Helper()
		want := map[string]*record{}
		for i, l := range lines {
			if !lost(i, l) {
				want[l.rec.ID] = l.rec
			}
		}
		if err := writeFile(path, log); err != nil {
			t.Fatal(err)
		}
		m, err := Open(Config{Dir: dir, Workers: 1, Exec: blockExec})
		if err != nil {
			t.Fatalf("%s: Open failed: %v", damage, err)
		}
		defer m.Close()
		for _, id := range ids {
			sn, ok := m.Get(id)
			w := want[id]
			if w == nil {
				if ok {
					t.Fatalf("%s: job %s adopted in state %s, but none of its records is intact", damage, id, sn.State)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: job %s lost; its %s record is intact", damage, id, w.State)
			}
			if err := matchRecord(sn, w); err != nil {
				t.Fatalf("%s: job %s: %v", damage, id, err)
			}
		}
	}
	for n := 0; n <= len(full); n++ {
		check(fmt.Sprintf("truncated at %d", n), full[:n], func(_ int, l spoolLine) bool { return l.end >= n })
	}
	for _, l := range lines {
		// A checksum digit, the separator, the middle and the last byte
		// of the JSON, and the newline.
		for _, off := range []int{l.start, l.start + 8, (l.start + l.end) / 2, l.end - 1, l.end} {
			log := append([]byte(nil), full...)
			log[off] ^= 0x01
			check(fmt.Sprintf("byte %d flipped", off), log, func(i int, l spoolLine) bool {
				// A flipped newline also merges the line with the next one.
				return l.start <= off && off <= l.end || i > 0 && lines[i-1].end == off
			})
		}
	}
}

// buildMixedSpool runs jobs into every state and returns the spool log,
// its parsed lines and the job IDs: done (3 records), failed and then
// re-armed to queued (4), running at shutdown (2), queued (1) and
// cancelled while queued (2).
func buildMixedSpool(t *testing.T) ([]byte, []spoolLine, []string) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 1, Exec: func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error) {
		switch string(payload) {
		case `"done"`:
			return []byte("{\n  \"ok\": true\n}\n"), nil
		case `"fail"`:
			return nil, errors.New("boom")
		}
		return blockExec(ctx, kind, payload)
	}})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(key, payload string) string {
		sn, err := m.Submit("map", "t", key, json.RawMessage(payload))
		if err != nil {
			t.Fatal(err)
		}
		return sn.ID
	}
	done := submit("kdone", `"done"`)
	waitState(t, m, done, StateDone)
	failed := submit("kfail", `"fail"`)
	waitState(t, m, failed, StateFailed)
	running := submit("krun", `"block"`)
	waitState(t, m, running, StateRunning)
	queued := submit("kqueue", `"block"`)
	cancelled := submit("kcancel", `"block"`)
	if _, err := m.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	submit("kfail", `"fail"`) // re-armed behind the running job
	m.Close()

	full, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	var lines []spoolLine
	for start := 0; start < len(full); {
		end := start + bytes.IndexByte(full[start:], '\n')
		rec := decodeLine(full[start:end])
		if rec == nil {
			t.Fatalf("undamaged log line %q does not decode", full[start:end])
		}
		lines = append(lines, spoolLine{start: start, end: end, rec: rec})
		start = end + 1
	}
	if len(lines) != 12 {
		t.Fatalf("mixed spool holds %d records, want 12", len(lines))
	}
	return full, lines, []string{done, failed, running, queued, cancelled}
}

// matchRecord checks a reopened job against the record it should have
// been adopted from: the record's events are a prefix of the job's, a
// terminal job matches it exactly, and a non-terminal one continues
// with the resume event.
func matchRecord(sn Snapshot, w *record) error {
	if len(sn.Events) < len(w.Events) {
		return fmt.Errorf("has %d events, its record %d", len(sn.Events), len(w.Events))
	}
	for i, ev := range w.Events {
		got := sn.Events[i]
		if got.Seq != ev.Seq || got.State != ev.State || got.Detail != ev.Detail || !got.At.Equal(ev.At) {
			return fmt.Errorf("event %d = %+v, record has %+v", i, got, ev)
		}
	}
	if w.State.Terminal() {
		if sn.State != w.State || len(sn.Events) != len(w.Events) || !bytes.Equal(sn.Result, w.Result) || sn.Attempts != w.Attempts {
			return fmt.Errorf("= %s with %d events, record is %s with %d", sn.State, len(sn.Events), w.State, len(w.Events))
		}
		return nil
	}
	if next := sn.Events[len(w.Events):]; len(next) == 0 || next[0].State != StateQueued || !strings.HasPrefix(next[0].Detail, "resumed after restart") {
		return fmt.Errorf("non-terminal record (%s) not resumed: events %+v", w.State, sn.Events)
	}
	return nil
}
