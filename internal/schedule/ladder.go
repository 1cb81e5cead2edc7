package schedule

import (
	"context"
	"slices"
	"sync"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// ladderMaxWords caps the int64 words one ladder retains across all of
// its levels (2 MiB), and with them the memory its builds allocate: a
// build stops as soon as its level would pass the cap, and the ladder
// is full from then on. A reader streams every level the ladder does
// not hold with enumerate, as it would without a ladder, so the answers
// are unchanged and the memory stays constant per level.
const ladderMaxWords = 1 << 18

// piLadder is the S-independent half of Procedure 5.1, hoisted out of
// the joint and Pareto searches' space-mapping loops. The objective
// level order f = Σ|π_i|·μ_i and the first test ΠD > 0 depend only on
// μ and D, so one ladder per search call holds, for every objective
// level, the Π passing ΠD > 0 in enumerate's lexicographic order. Each
// entry keeps its ordinal among all Π of the level and each level its
// raw size, so an inner search reading the ladder reports exactly the
// candidate counts of one that streams enumerate itself.
//
// Levels are built lazily, one at a time under buildMu, and published
// only once complete; every worker of the search shares them
// read-only. Publication never writes a slot below the published
// length of levels (a gap is filled in a copy), so an inner search
// takes the held prefix once, under one read lock, and indexes it
// without further locking (see reader).
type piLadder struct {
	mu      intmat.Vector
	depCols []intmat.Vector

	buildMu  sync.Mutex // serializes builds, so each level is built once
	capWords int64      // retention cap; ladderMaxWords outside tests
	stored   int64      // words retained so far; guarded by buildMu

	rw     sync.RWMutex
	levels []*piLevel // index = cost; nil until built; copy-on-write below len
	full   bool       // a build passed the cap: no further level is built
}

// piLevel is one built objective level.
type piLevel struct {
	n    int
	pis  []int64 // passing Π back to back, n entries each
	ords []int64 // ords[i] is entry i's ordinal among all Π of the level
	raw  int64   // the number of Π at this level, passing or not
}

// Len returns the number of Π at this level that pass ΠD > 0.
func (lv *piLevel) Len() int { return len(lv.ords) }

// pi returns entry i as a read-only view into the level's storage.
func (lv *piLevel) pi(i int) intmat.Vector {
	return intmat.Vector(lv.pis[i*lv.n : (i+1)*lv.n : (i+1)*lv.n])
}

// fill enumerates level cost into lv, reusing its storage, and keeps
// the Π passing ΠD > 0. It reports false, leaving lv partial, as soon
// as the kept entries would take more than maxWords words, and fails
// with ctx's error when ctx ends first, polling it every
// ctxCheckMask+1 Π.
func (lv *piLevel) fill(ctx context.Context, mu intmat.Vector, depCols []intmat.Vector, cost, maxWords int64) (bool, error) {
	n := len(mu)
	lv.n, lv.pis, lv.ords, lv.raw = n, lv.pis[:0], lv.ords[:0], 0
	words := int64(0)
	fits := true
	var err error
	enumerate(mu, cost, func(pi intmat.Vector) bool {
		if lv.raw&ctxCheckMask == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		if validCols(pi, depCols) {
			if words += int64(n + 1); words > maxWords {
				fits = false
				return false
			}
			lv.pis = append(lv.pis, pi...)
			lv.ords = append(lv.ords, lv.raw)
		}
		lv.raw++
		return true
	})
	return fits && err == nil, err
}

func newPiLadder(algo *uda.Algorithm) *piLadder {
	return &piLadder{mu: algo.Set.Upper, depCols: depColumns(algo), capWords: ladderMaxWords}
}

// depColumns returns the dependence columns d̄_i of D (Matrix.Col
// allocates, and the ΠD > 0 test runs once per enumerated Π).
func depColumns(algo *uda.Algorithm) []intmat.Vector {
	cols := make([]intmat.Vector, algo.NumDeps())
	for i := range cols {
		cols[i] = algo.D.Col(i)
	}
	return cols
}

// isDone polls a context's Done channel without blocking. Unlike
// ctx.Err it takes no lock, so the per-level and per-chunk checks of
// the searches cost a channel load.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// level returns objective level cost, building it on first use. It
// returns nil, with no error, when the ladder is full and does not hold
// the level; the caller then streams the level itself. It fails only
// with ctx's error, when ctx ends while this caller builds the level.
// A level is published only once complete, so an interrupted build
// leaves nothing behind and the next reader builds the level afresh.
func (l *piLadder) level(ctx context.Context, cost int64) (*piLevel, error) {
	if lv, done := l.lookup(cost); done {
		return lv, nil
	}
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	if lv, done := l.lookup(cost); done { // built while this caller waited
		return lv, nil
	}
	lv := new(piLevel)
	fits, err := lv.fill(ctx, l.mu, l.depCols, cost, l.capWords-l.stored)
	if err != nil {
		return nil, err
	}
	l.rw.Lock()
	defer l.rw.Unlock()
	if !fits {
		l.full = true
		return nil, nil
	}
	l.stored += int64(len(lv.pis) + len(lv.ords))
	if cost < int64(len(l.levels)) {
		// A gap below the published length is filled in a copy: readers
		// index their snapshot of levels without the lock.
		l.levels = slices.Clone(l.levels)
	} else {
		l.levels = append(l.levels, make([]*piLevel, cost+1-int64(len(l.levels)))...)
	}
	l.levels[cost] = lv
	return lv, nil
}

// lookup returns the level when it is held, and whether a reader need
// not build it: true when it is held or the ladder is full.
func (l *piLadder) lookup(cost int64) (*piLevel, bool) {
	l.rw.RLock()
	defer l.rw.RUnlock()
	if cost < int64(len(l.levels)) && l.levels[cost] != nil {
		return l.levels[cost], true
	}
	return nil, l.full
}

// scan calls fn on each Π of level cost that passes ΠD > 0, in
// enumerate's order, with its ordinal among all Π of the level, until
// fn returns false. It reads the level from the ladder when held and
// streams it otherwise; see scanLevel.
func (l *piLadder) scan(ctx context.Context, cost int64, fn func(pi intmat.Vector, ord int64) bool) (int64, error) {
	lv, err := l.level(ctx, cost)
	if err != nil {
		return 0, err
	}
	return scanLevel(ctx, lv, l.mu, l.depCols, cost, fn)
}

// ladderReader is one inner search's view of a ladder: the levels held
// when the search began, indexed without locking, and the ladder itself
// for the levels past them. A nil ladder yields a reader that holds
// nothing, so every level is streamed.
type ladderReader struct {
	l    *piLadder
	held []*piLevel
	full bool
}

// reader takes the held prefix of l under one read lock.
func (l *piLadder) reader() ladderReader {
	if l == nil {
		return ladderReader{full: true}
	}
	l.rw.RLock()
	defer l.rw.RUnlock()
	return ladderReader{l: l, held: l.levels, full: l.full}
}

// level is piLadder.level, answered from the snapshot when it holds the
// level. A ladder full at the snapshot builds nothing more, so a level
// missing from a full snapshot is streamed without asking the ladder.
func (r *ladderReader) level(ctx context.Context, cost int64) (*piLevel, error) {
	if cost < int64(len(r.held)) && r.held[cost] != nil {
		return r.held[cost], nil
	}
	if r.full {
		return nil, nil
	}
	return r.l.level(ctx, cost)
}

// scanLevel calls fn on each Π of level cost that passes ΠD > 0, in
// enumerate's order, with its ordinal among all Π of the level, until
// fn returns false. It reads lv when non-nil and streams enumerate
// otherwise. It returns the count a streaming scan reports: the
// stopping entry's ordinal + 1, or else the level's raw size. It fails
// only with ctx's error, polled every ctxCheckMask+1 entries.
func scanLevel(ctx context.Context, lv *piLevel, mu intmat.Vector, depCols []intmat.Vector, cost int64, fn func(pi intmat.Vector, ord int64) bool) (int64, error) {
	done := ctx.Done()
	if lv != nil {
		for i := 0; i < lv.Len(); i++ {
			if i&ctxCheckMask == ctxCheckMask && isDone(done) {
				return lv.ords[i], ctx.Err()
			}
			if !fn(lv.pi(i), lv.ords[i]) {
				return lv.ords[i] + 1, nil
			}
		}
		return lv.raw, nil
	}
	seen := int64(0)
	var err error
	enumerate(mu, cost, func(pi intmat.Vector) bool {
		seen++
		if seen&ctxCheckMask == 0 && isDone(done) {
			err = ctx.Err()
			return false
		}
		return !validCols(pi, depCols) || fn(pi, seen-1)
	})
	return seen, err
}

// firstNonEmpty returns the lowest objective level in [1, maxCost]
// holding a Π with ΠD > 0, or −1 when there is none. Since total time
// is 1 + f, one plus it lower-bounds the time of every schedule.
func (l *piLadder) firstNonEmpty(ctx context.Context, maxCost int64) (int64, error) {
	for cost := int64(1); cost <= maxCost; cost++ {
		found := false
		if _, err := l.scan(ctx, cost, func(intmat.Vector, int64) bool {
			found = true
			return false
		}); err != nil {
			return 0, err
		}
		if found {
			return cost, nil
		}
	}
	return -1, nil
}
