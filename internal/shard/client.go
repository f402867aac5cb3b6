package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"sirius/internal/search"
)

// Client routes retrieval through a scatter-gather frontend's
// /v1/search endpoint. It satisfies the QA engine's Retriever contract
// structurally (plain search.Result values), so internal/qa never
// imports this package.
type Client struct {
	// BaseURL is the frontend, e.g. "http://127.0.0.1:8081".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Deadlines come from the
	// request context (the query deadline), not a client timeout.
	HTTPClient *http.Client
}

// NewClient returns a shard-tier retrieval client for a frontend.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// Retrieve asks the frontend to scatter query across the search shards
// and returns the merged ranking. partial reports that at least one
// shard missed its budget and the ranking is best-effort.
func (c *Client) Retrieve(ctx context.Context, query string, k int) (results []search.Result, partial bool, err error) {
	body, err := json.Marshal(SearchRequest{Query: query, K: k})
	if err != nil {
		return nil, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	httpResp, err := hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return nil, false, fmt.Errorf("shard search: %s: %s", httpResp.Status, bytes.TrimSpace(msg))
	}
	var resp SearchResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, false, err
	}
	return Results(resp.Results), resp.Partial, nil
}
