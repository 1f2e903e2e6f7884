// HTTP client for the campaign service. It mirrors the Coordinator
// surface — Submit/Status/Results/Cancel for callers, Claim/Renew/
// Complete for worker nodes (Client implements Source, so RunWorker
// drives a remote campaignd exactly like an in-process coordinator).

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"armsefi/internal/core/beam"
	"armsefi/internal/core/gefin"
)

// Client talks to a campaignd coordinator over HTTP.
type Client struct {
	// Base is the coordinator URL, e.g. "http://localhost:8440".
	Base string
	// HTTP is the transport; nil picks a client with a 30s timeout.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// do issues one JSON request. A nil out discards the response body; 204
// responses leave out untouched.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var eb errorBody
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			return fmt.Errorf("serve: %s %s: %s", method, path, eb.Error)
		}
		return fmt.Errorf("serve: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: decoding %s %s: %w", method, path, err)
	}
	return nil
}

// Submit submits a campaign and returns its assigned ID.
func (c *Client) Submit(req SubmitRequest) (string, error) {
	var resp struct {
		ID string `json:"id"`
	}
	if err := c.do("POST", "/api/v1/campaigns", req, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Status fetches one campaign's status.
func (c *Client) Status(id string) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.do("GET", "/api/v1/campaigns/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// StatusAll fetches every campaign's status.
func (c *Client) StatusAll() ([]*CampaignStatus, error) {
	var sts []*CampaignStatus
	if err := c.do("GET", "/api/v1/campaigns", nil, &sts); err != nil {
		return nil, err
	}
	return sts, nil
}

// InjectionResults fetches a completed injection campaign's assembled
// Result.
func (c *Client) InjectionResults(id string) (*gefin.Result, error) {
	var res gefin.Result
	if err := c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// BeamResults fetches a completed beam campaign's assembled Result.
func (c *Client) BeamResults(id string) (*beam.Result, error) {
	var res beam.Result
	if err := c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// RawResults fetches a completed campaign's Result as raw JSON, exactly
// as the coordinator serialised it (useful for byte-level comparisons).
func (c *Client) RawResults(id string) ([]byte, error) {
	req, err := http.NewRequest("GET", strings.TrimRight(c.Base, "/")+"/api/v1/campaigns/"+id+"/results", nil)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("serve: results %s: HTTP %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// Convergence fetches a campaign's merged convergence view: every
// node's latest estimator tallies summed, margins judged under the
// campaign's (or coordinator's) rule.
func (c *Client) Convergence(id string) (*ConvView, error) {
	var cv ConvView
	if err := c.do("GET", "/api/v1/campaigns/"+id+"/convergence", nil, &cv); err != nil {
		return nil, err
	}
	return &cv, nil
}

// Cancel cancels a campaign.
func (c *Client) Cancel(id string) error {
	return c.do("POST", "/api/v1/campaigns/"+id+"/cancel", struct{}{}, nil)
}

// WaitComplete polls until the campaign completes, is cancelled, or ctx
// expires. It returns the final status.
func (c *Client) WaitComplete(ctx context.Context, id string, poll time.Duration) (*CampaignStatus, error) {
	return c.Await(ctx, id, poll, nil)
}

// Await is WaitComplete that also hands every status it reads to
// progress (when non-nil). A non-positive poll picks 500 ms.
func (c *Client) Await(ctx context.Context, id string, poll time.Duration, progress func(*CampaignStatus)) (*CampaignStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		st, err := c.Status(id)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			progress(st)
		}
		if st.State == StateComplete || st.State == StateCancelled {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Claim implements Source over HTTP; a nil Assignment means nothing is
// claimable right now (the coordinator answers 204 and do leaves the
// zero Assignment untouched).
func (c *Client) Claim(node string) (*Assignment, error) {
	var a Assignment
	if err := c.do("POST", "/api/v1/claim", claimRequest{Node: node}, &a); err != nil {
		return nil, err
	}
	if a.Campaign == "" {
		return nil, nil
	}
	return &a, nil
}

// Renew implements Source over HTTP.
func (c *Client) Renew(node, campaign string, shard int) error {
	return c.do("POST", "/api/v1/renew", leaseRequest{Node: node, Campaign: campaign, Shard: shard}, nil)
}

// Complete implements Source over HTTP.
func (c *Client) Complete(node, campaign string, shard int, span int64, payload *ShardPayload) error {
	return c.do("POST", "/api/v1/complete", completeRequest{Node: node, Campaign: campaign, Shard: shard, Span: span, Payload: payload}, nil)
}

// Telemetry implements TelemetrySink over HTTP, so a remote worker's
// Shipper federates its batches to the coordinator.
func (c *Client) Telemetry(b *TelemetryBatch) error {
	return c.do("POST", "/api/v1/telemetry", b, nil)
}

// Fleet fetches the coordinator's fleet snapshot.
func (c *Client) Fleet() (*FleetStatus, error) {
	var fs FleetStatus
	if err := c.do("GET", "/api/v1/fleet", nil, &fs); err != nil {
		return nil, err
	}
	return &fs, nil
}

// Trace fetches a campaign's merged fleet trace as JSONL, filtered to
// winning executions.
func (c *Client) Trace(id string) ([]byte, error) {
	req, err := http.NewRequest("GET", strings.TrimRight(c.Base, "/")+"/api/v1/campaigns/"+id+"/trace", nil)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("serve: trace %s: HTTP %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
