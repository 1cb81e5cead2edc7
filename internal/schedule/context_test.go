package schedule

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

func TestFindOptimalContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	_, err := FindOptimalContext(ctx, algo, s, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrNoSchedule) {
		t.Fatal("cancelled search must not report ErrNoSchedule")
	}
}

func TestFindOptimalContextBackgroundMatchesPlain(t *testing.T) {
	algo := uda.MatMul(4)
	s := intmat.FromRows([]int64{1, 1, -1})
	want, err := FindOptimal(algo, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FindOptimalContext(context.Background(), algo, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || !got.Mapping.Pi.Equal(want.Mapping.Pi) || got.Candidates != want.Candidates {
		t.Fatalf("context search diverged: got %v, want %v", got, want)
	}
}

func TestFindJointMappingContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FindJointMappingContext(ctx, uda.MatMul(4), 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFindJointMappingContextDeadline(t *testing.T) {
	// A deliberately large instance: the full joint search of bit-level
	// matmul at μ = 3 takes tens of seconds, far longer than the
	// deadline, so the search must be interrupted and report
	// DeadlineExceeded promptly. (Transitive closure μ = 30 searches in
	// a few milliseconds and could finish before a 1 ms deadline fired
	// on a loaded machine.)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		start := time.Now()
		_, err := FindJointMappingContext(ctx, uda.BitLevelMatMul(3, 3), 1,
			&SpaceOptions{Schedule: Options{Workers: workers}})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("workers=%d: cancellation took %v, want prompt return", workers, elapsed)
		}
	}
}

func TestFindJointMappingContextBackgroundMatchesPlain(t *testing.T) {
	algo := uda.TransitiveClosure(4)
	want, err := FindJointMapping(algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FindJointMappingContext(context.Background(), algo, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time || got.Cost != want.Cost ||
		!got.Mapping.Pi.Equal(want.Mapping.Pi) || !got.Mapping.S.Equal(want.Mapping.S) {
		t.Fatalf("context search diverged: got %v, want %v", got, want)
	}
}

func TestFindSpaceMappingContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FindSpaceMappingContext(ctx, uda.MatMul(4), intmat.Vec(1, 4, 1), 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFindParetoContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		_, err := FindParetoContext(ctx, uda.MatMul(4), 1, &ParetoOptions{Space: SpaceOptions{Schedule: Options{Workers: workers}}})
		if !errors.Is(err, context.Canceled) || errors.Is(err, ErrNoSchedule) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestFindParetoContextDeadline: a 1 ms deadline stops a Pareto search
// of bit-level matmul, which takes about 0.4 s, promptly with
// DeadlineExceeded, and the walk's helper goroutines are gone once it
// returns.
func TestFindParetoContextDeadline(t *testing.T) {
	for _, workers := range []int{1, 2} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		start := time.Now()
		_, err := FindParetoContext(ctx, uda.BitLevelMatMul(2, 2), 1,
			&ParetoOptions{Space: SpaceOptions{Schedule: Options{Workers: workers}}})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("workers=%d: cancellation took %v, want prompt return", workers, elapsed)
		}
		for wait := time.Now(); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Since(wait) > time.Second {
				t.Fatalf("workers=%d: %d goroutines after the search, %d before", workers, runtime.NumGoroutine(), before)
			}
		}
	}
}
