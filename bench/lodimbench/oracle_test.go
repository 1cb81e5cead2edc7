package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"lodim/internal/service"
)

// firstMatmul returns a one-dimensional-array matmul problem whose axes
// all have at least two points.
func firstMatmul(t *testing.T) *problem {
	for _, p := range testProblems(t) {
		if p.inst.Family == "matmul" && p.inst.Dims == 1 && p.feasible() &&
			p.inst.Bounds[0] >= 2 && p.inst.Bounds[1] >= 2 && p.inst.Bounds[2] >= 2 {
			return p
		}
	}
	t.Fatal("no matmul problem in the manifest")
	return nil
}

// realAnswer asks an in-process service for the problem's mapping.
func realAnswer(t *testing.T, req *request) []byte {
	t.Helper()
	svc := service.New(service.Config{})
	defer svc.Close()
	var mr service.MapRequest
	if err := json.Unmarshal(req.body, &mr); err != nil {
		t.Fatal(err)
	}
	resp, _, err := svc.Map(context.Background(), &mr)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestOracleAcceptsTheServicesAnswer(t *testing.T) {
	p := firstMatmul(t)
	req := newMapRequest(p, permuted(p.inst, newRand(1)))
	or := newOracle()
	if c := or.check(req, http.StatusOK, realAnswer(t, req)); c != "" {
		t.Fatalf("right answer rejected: %s", c)
	}
	if n, complaints := or.certifyAll(context.Background(), 1); n != 1 || len(complaints) != 0 {
		t.Fatalf("certified %d, complaints %v", n, complaints)
	}
}

func TestOracleCatchesDoctoredTotalTime(t *testing.T) {
	p := firstMatmul(t)
	req := newMapRequest(p, p.inst)
	var resp service.MapResponse
	if err := json.Unmarshal(realAnswer(t, req), &resp); err != nil {
		t.Fatal(err)
	}
	resp.TotalTime++
	body, _ := json.Marshal(resp)
	if c := newOracle().check(req, http.StatusOK, body); !strings.Contains(c, "total_time") {
		t.Fatalf("doctored total_time passed: %q", c)
	}
}

// TestOracleCatchesConflictingS swaps in S = [1 0 0] with Π = (1, 1, 1):
// a valid schedule for matmul's unit dependences, but the index points
// (i, j, k) and (i, j+1, k−1) meet on one cell at one time. The inline
// checks see only totals; the verifier must reject it.
func TestOracleCatchesConflictingS(t *testing.T) {
	p := firstMatmul(t)
	req := newMapRequest(p, p.inst)
	var resp service.MapResponse
	if err := json.Unmarshal(realAnswer(t, req), &resp); err != nil {
		t.Fatal(err)
	}
	resp.S = [][]int64{{1, 0, 0}}
	resp.Pi = []int64{1, 1, 1}
	body, _ := json.Marshal(resp)
	or := newOracle()
	if c := or.check(req, http.StatusOK, body); c != "" {
		t.Fatalf("inline check: %s", c)
	}
	n, complaints := or.certifyAll(context.Background(), 1)
	if n != 1 || len(complaints) != 1 || !strings.Contains(complaints[0], "rejected") {
		t.Fatalf("conflicting S certified: %d certificates, complaints %v", n, complaints)
	}
}

func TestOracleStatuses(t *testing.T) {
	var infeasible *problem
	for _, p := range testProblems(t) {
		if !p.feasible() {
			infeasible = p
			break
		}
	}
	or := newOracle()
	req := newMapRequest(infeasible, infeasible.inst)
	if c := or.check(req, http.StatusUnprocessableEntity, []byte(`{"error":"no schedule"}`)); c != "" {
		t.Errorf("422 for an infeasible problem rejected: %s", c)
	}
	if c := or.check(req, http.StatusOK, []byte(`{}`)); c == "" {
		t.Error("200 for an infeasible problem accepted")
	}
	p := firstMatmul(t)
	if c := or.check(newMapRequest(p, p.inst), http.StatusUnprocessableEntity, nil); c == "" {
		t.Error("422 for a feasible problem accepted")
	}
}
