package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxPeerBodyBytes bounds peer response bodies; any valid lookup
// response within the service's problem limits encodes far below this.
const maxPeerBodyBytes = 1 << 20

// Client speaks the peer protocol. A zero Client is not usable; build
// with NewClient. The client reports every outcome to the optional
// Health tracker so /healthz can show passive peer reachability.
type Client struct {
	httpc  *http.Client
	health *Health
}

// NewClient builds a peer client. timeout bounds each peer call
// end-to-end in addition to any context deadline (0 selects 15s — peer
// lookups can legitimately wait for a full search on the owner).
// health may be nil.
func NewClient(httpc *http.Client, health *Health) *Client {
	if httpc == nil {
		httpc = &http.Client{Timeout: 15 * time.Second}
	}
	return &Client{httpc: httpc, health: health}
}

// PeerError reports a failed peer call. Status is the peer's HTTP
// status when the peer answered at all, 0 for transport failures.
type PeerError struct {
	Member Member
	Status int
	Err    error
}

func (e *PeerError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("cluster: peer %s (%s) answered %d: %v", e.Member.ID, e.Member.URL, e.Status, e.Err)
	}
	return fmt.Sprintf("cluster: peer %s (%s) unreachable: %v", e.Member.ID, e.Member.URL, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Lookup forwards a canonical problem to its owner and decodes the
// owner's result into result, a pointer to the workload's wire type.
// traceparent, when non-empty, joins the peer's request trace to the
// forwarder's (W3C header). The context's deadline rides both the HTTP
// request and the body's TimeoutMS.
func (c *Client) Lookup(ctx context.Context, m Member, req *LookupRequest, result any, traceparent string) (*LookupResponse, error) {
	resp := LookupResponse{Result: result}
	if err := c.post(ctx, m, LookupPath, req, traceparent, &resp); err != nil {
		return nil, err
	}
	switch resp.Disposition {
	case DispositionHit, DispositionMiss, DispositionShared:
	default:
		err := &PeerError{Member: m, Err: fmt.Errorf("unknown disposition %q", resp.Disposition)}
		c.report(m.ID, err)
		return nil, err
	}
	return &resp, nil
}

// Fill pushes a finished result into a peer's cache (best effort: the
// caller already has the result, so any error is advisory).
func (c *Client) Fill(ctx context.Context, m Member, req *FillRequest) error {
	var resp FillResponse
	return c.post(ctx, m, FillPath, req, "", &resp)
}

// Status fetches a peer's observability snapshot — the read-only leg
// of the protocol. It shares post's transport discipline (hop header,
// body cap, passive health reporting).
func (c *Client) Status(ctx context.Context, m Member, traceparent string) (*NodeStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+StatusPath, nil)
	if err != nil {
		return nil, &PeerError{Member: m, Err: err}
	}
	hreq.Header.Set(HopHeader, strconv.Itoa(MaxHops))
	if traceparent != "" {
		hreq.Header.Set("Traceparent", traceparent)
	}
	var resp NodeStatus
	if err := c.do(m, StatusPath, hreq, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// post runs one peer call: encode, send with the hop header, decode,
// and report the outcome to the health tracker.
func (c *Client) post(ctx context.Context, m Member, path string, body any, traceparent string, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: encode %s: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+path, bytes.NewReader(payload))
	if err != nil {
		return &PeerError{Member: m, Err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(HopHeader, strconv.Itoa(MaxHops))
	if traceparent != "" {
		hreq.Header.Set("Traceparent", traceparent)
	}
	return c.do(m, path, hreq, out)
}

// do sends a prepared request and handles the shared tail: bounded
// read, non-200 classification (the peer is up — only transport
// failures mark it unhealthy), decode, health report.
func (c *Client) do(m Member, path string, hreq *http.Request, out any) error {
	hresp, err := c.httpc.Do(hreq)
	if err != nil {
		perr := &PeerError{Member: m, Err: err}
		c.report(m.ID, perr)
		return perr
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, maxPeerBodyBytes))
	if err != nil {
		perr := &PeerError{Member: m, Err: err}
		c.report(m.ID, perr)
		return perr
	}
	if hresp.StatusCode != http.StatusOK {
		perr := &PeerError{Member: m, Status: hresp.StatusCode, Err: fmt.Errorf("%s", peerErrorDetail(data))}
		// A non-200 answer still proves the peer is up: only transport
		// failures mark it unhealthy.
		c.report(m.ID, nil)
		return perr
	}
	if err := json.Unmarshal(data, out); err != nil {
		perr := &PeerError{Member: m, Err: fmt.Errorf("decode %s response: %w", path, err)}
		c.report(m.ID, perr)
		return perr
	}
	c.report(m.ID, nil)
	return nil
}

// report forwards an outcome to the health tracker, if any.
func (c *Client) report(id string, err error) {
	if c.health == nil {
		return
	}
	if err != nil {
		c.health.ReportError(id, err)
	} else {
		c.health.ReportOK(id)
	}
}

// peerErrorDetail extracts the error string from a JSON error body,
// falling back to the raw (truncated) text.
func peerErrorDetail(data []byte) string {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	const max = 200
	s := string(data)
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}
