package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"divmax/internal/api"
)

// requestTimeout bounds every request; a failed request is charged this
// latency, so it misses every latency limit.
const requestTimeout = 60 * time.Second

// client is the single-process, closed-loop load generator: one
// request at a time over one keep-alive loopback connection, the next
// request sent only after the previous response has been read.
type client struct {
	base string
	hc   *http.Client

	attempted, failed int
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// call sends one request and decodes a 2xx JSON answer into out. It
// returns the latency from send to the decoded answer; a failed request
// is counted and reported with requestTimeout.
func (c *client) call(method, path string, body []byte, out any) (time.Duration, error) {
	c.attempted++
	start := time.Now()
	err := c.roundTrip(method, path, body, out)
	if err != nil {
		c.failed++
		return requestTimeout, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return time.Since(start), nil
}

func (c *client) roundTrip(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var env api.ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env) // the status alone already fails the call
		return fmt.Errorf("http %d (%s): %s", resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (c *client) ingest(body []byte) (time.Duration, error) {
	var r api.IngestResponse
	return c.call(http.MethodPost, "/v1/ingest", body, &r)
}

func (c *client) remove(body []byte) (time.Duration, error) {
	var r api.DeleteResponse
	return c.call(http.MethodPost, "/v1/delete", body, &r)
}

func (c *client) query(measure string) (api.QueryResponse, time.Duration, error) {
	var r api.QueryResponse
	d, err := c.call(http.MethodGet, fmt.Sprintf("/v1/query?k=%d&measure=%s", maxK, measure), nil, &r)
	if err == nil && len(r.Solution) != maxK {
		err = fmt.Errorf("query %s: %d points in the answer, want %d", measure, len(r.Solution), maxK)
	}
	return r, d, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }
