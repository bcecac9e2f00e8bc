package endpoint

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Pinger is the optional health-check facet of a Client: Ping reports
// whether the backend can currently answer queries. Unlike Query it
// is cheap (no result decoding on the happy path where the transport
// offers a dedicated health endpoint) and single-shot — no retries,
// no breaker interaction — so health probers see the backend's true
// state instead of the resilience layer's smoothed view.
type Pinger interface {
	Ping(ctx context.Context) error
}

// healthProbeQuery is the fallback probe for clients without a
// cheaper channel: an ASK that any SPARQL backend answers from its
// first index hit (or an instant false on an empty store — still a
// healthy answer).
const healthProbeQuery = `ASK { ?s ?p ?o }`

// Ping health-checks c: the Pinger fast path when c implements it, a
// cheap ASK query otherwise. A nil error means the backend answered.
func Ping(ctx context.Context, c Client) error {
	if p, ok := c.(Pinger); ok {
		return p.Ping(ctx)
	}
	_, err := c.Query(ctx, healthProbeQuery)
	return err
}

// Ping implements Pinger: an in-process store is healthy as long as
// the process runs, so only context expiry can fail it.
func (c *InProcess) Ping(ctx context.Context) error { return ctx.Err() }

// Ping implements Pinger over the remote server's health endpoint:
// GET <base>/healthz (derived from the /sparql query URL), treating
// any non-2xx as unhealthy — a 503 from a loading or replica-starved
// server keeps traffic away until it turns ready. Servers without a
// /healthz route (404/405) fall back to the cheap ASK probe so
// foreign SPARQL endpoints remain probeable.
func (c *HTTPClient) Ping(ctx context.Context) error {
	url := healthURL(c.Endpoint)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("endpoint: build health request: %w", err)
	}
	hc := c.http
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return classifyCtx(ctx, MarkRetryable(fmt.Errorf("endpoint: health probe: %w", err)))
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return nil
	case resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed:
		// No health route on this server; ask the query endpoint.
		_, qerr := c.Query(ctx, healthProbeQuery)
		return qerr
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(body))}
	}
}

// healthURL derives the health endpoint from a /sparql query URL:
// the sibling /healthz path on the same host.
func healthURL(endpoint string) string {
	base := strings.TrimSuffix(strings.TrimSuffix(endpoint, "/"), "/sparql")
	return base + "/healthz"
}

// Ping implements Pinger by delegating straight to the inner client,
// bypassing retries, backoff, and the breaker: a probe wants the
// backend's immediate state, and probing must not consume half-open
// probe slots that real queries are waiting on.
func (c *ResilientClient) Ping(ctx context.Context) error {
	return Ping(ctx, c.inner)
}
