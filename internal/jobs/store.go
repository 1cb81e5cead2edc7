package jobs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

const logName = "spool.log" // the spool directory's one file

// store is the append-only spool log: every transition appends the
// job's full record as one line, "<crc32 hex> <compact json>\n". Replay
// keeps the last intact line per job ID, so a job whose last line is
// torn or corrupt falls back to its previous record. Nothing is fsynced:
// the spool survives a process crash, not a machine crash.
type store struct {
	dir  string
	f    *os.File  // the log, opened for appending
	w    io.Writer // where appends go: f, or a fault-injecting wrapper in tests
	end  int64     // offset just past the last line that fully landed
	torn bool      // a failed append may have left bytes past end: cut them first
	buf  bytes.Buffer
	enc  *json.Encoder
}

// openStore replays the spool in dir, folding in (and removing) legacy
// one-file-per-job records, and compacts it into a fresh log opened for
// appending. The records come back in submission order (creation time,
// then ID), the order resumed jobs re-enter the queue in.
func openStore(dir string) (*store, []*record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: spool dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: spool dir: %w", err)
	}
	live := make(map[string]*record)
	var legacy []string
	for _, e := range entries {
		name := filepath.Join(dir, e.Name())
		if strings.Contains(e.Name(), ".tmp-") {
			os.Remove(name)
		} else if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			// Legacy records predate the log: its lines win over them.
			data, err := os.ReadFile(name)
			if err != nil {
				return nil, nil, fmt.Errorf("jobs: read %s: %w", e.Name(), err)
			}
			var r record
			if json.Unmarshal(data, &r) == nil && r.ID != "" {
				live[r.ID] = &r
			}
			legacy = append(legacy, name)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("jobs: spool: %w", err)
	}
	// A line lands with its newline: a last line without one is torn.
	for i := bytes.IndexByte(data, '\n'); i >= 0; i = bytes.IndexByte(data, '\n') {
		if r := decodeLine(data[:i]); r != nil {
			live[r.ID] = r
		}
		data = data[i+1:]
	}
	recs := make([]*record, 0, len(live))
	for _, r := range live {
		recs = append(recs, r)
	}
	slices.SortFunc(recs, func(a, b *record) int {
		return cmp.Or(a.Created.Compare(b.Created), strings.Compare(a.ID, b.ID))
	})
	st := &store{dir: dir}
	st.enc = json.NewEncoder(&st.buf)
	if err := st.compact(recs); err != nil {
		return nil, nil, err
	}
	for _, name := range legacy {
		os.Remove(name)
	}
	return st, recs, nil
}

// decodeLine returns the record framed by line, or nil if it is damaged.
func decodeLine(line []byte) *record {
	if len(line) < 10 || line[8] != ' ' || !bytes.Equal(line[:8], checksum(nil, line[9:])) {
		return nil
	}
	var r record
	if json.Unmarshal(line[9:], &r) != nil || r.ID == "" {
		return nil
	}
	return &r
}

// checksum appends the 8 lowercase hex digits of data's CRC-32 to dst.
func checksum(dst, data []byte) []byte {
	return fmt.Appendf(dst, "%08x", crc32.ChecksumIEEE(data))
}

// encode frames r as a log line in st.buf.
func (st *store) encode(r *record) ([]byte, error) {
	st.buf.Reset()
	st.buf.WriteString("00000000 ")
	if err := st.enc.Encode(r); err != nil { // Encode adds the newline
		return nil, fmt.Errorf("jobs: encode %s: %w", r.ID, err)
	}
	line := st.buf.Bytes()
	checksum(line[:0], line[9:len(line)-1])
	return line, nil
}

// compact writes recs as a fresh log, renames it over the old one and
// opens it for appending.
func (st *store) compact(recs []*record) error {
	var data []byte
	for _, r := range recs {
		line, err := st.encode(r)
		if err != nil {
			return err
		}
		data = append(data, line...)
	}
	path := filepath.Join(st.dir, logName)
	tmp := path + ".tmp-compact"
	err := os.WriteFile(tmp, data, 0o600)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		st.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: spool: %w", err)
	}
	st.w, st.end = st.f, int64(len(data))
	return nil
}

// append persists one job record at the end of the log.
func (st *store) append(r *record) error {
	line, err := st.encode(r)
	if err != nil {
		return err
	}
	if st.torn {
		if err := st.f.Truncate(st.end); err != nil {
			return fmt.Errorf("jobs: spool %s: %w", r.ID, err)
		}
		st.torn = false
	}
	n, err := st.w.Write(line)
	if err != nil {
		st.torn = true
		return fmt.Errorf("jobs: spool %s: %w", r.ID, err)
	}
	st.end += int64(n)
	return nil
}

// close closes the log. Appends are unbuffered, so nothing is pending.
func (st *store) close() { st.f.Close() }
