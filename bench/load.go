package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"biorank"
)

// observation is one operation the benchmark sent and what came back.
type observation struct {
	op      op
	status  int
	body    []byte
	err     error // transport failure
	latency time.Duration
	done    time.Time // when the last body byte arrived
	window  bool      // sent inside the timed window
	ok      bool      // passed every output check (set by check)
}

// newConns returns one HTTP client per closed-loop client, each with a
// single keep-alive connection.
func newConns() []*http.Client {
	out := make([]*http.Client, clients)
	for i := range out {
		out[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		}
	}
	return out
}

func closeConns(conns []*http.Client) {
	for _, c := range conns {
		c.CloseIdleConnections()
	}
}

// send posts one operation and reads the whole response; latency runs
// from the send to the last body byte.
func send(ctx context.Context, c *http.Client, base string, o op) observation {
	obs := observation{op: o}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.req.path, bytes.NewReader(o.body))
	if err != nil {
		obs.err = err
		return obs
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.Do(req)
	if err == nil {
		obs.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		obs.status = resp.StatusCode
	}
	obs.done = time.Now()
	obs.latency = obs.done.Sub(start)
	obs.err = err
	return obs
}

// drive runs the closed loop: client c takes its operations from
// streams[c % len(streams)] and sends the next only after reading the
// previous response. No client starts an operation once d has passed and
// the shared streams have handed out minOps. It returns the observations,
// the start time, and the time until the last response arrived.
func drive(ctx context.Context, base string, conns []*http.Client, streams []*stream, d time.Duration, minOps int, window bool) ([]observation, time.Time, time.Duration) {
	start := time.Now()
	per := make([][]observation, len(conns))
	var wg sync.WaitGroup
	for c, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := streams[c%len(streams)]
			for ctx.Err() == nil && (time.Since(start) < d || s.taken() < minOps) {
				obs := send(ctx, conn, base, s.take())
				obs.window = window
				per[c] = append(per[c], obs)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []observation
	for _, p := range per {
		all = append(all, p...)
	}
	sortObservations(all)
	return all, start, elapsed
}

// sortObservations orders by stream, then stream position.
func sortObservations(obs []observation) {
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i].op, obs[j].op
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		return a.index < b.index
	})
}

// probe asks the idle server for every demo protein's reliability
// ranking under a seed no stream uses; the oracle verifies each against
// the state after all acknowledged ingests.
func probe(ctx context.Context, base string, conn *http.Client, seed uint64) []observation {
	var out []observation
	for i, p := range demoProteins() {
		req := request{path: "/query", protein: p, methods: []string{"reliability"},
			opts: biorank.Options{Trials: 1000, Seed: 1<<63 | seed}}
		out = append(out, send(ctx, conn, base, op{stream: -1, index: i, req: req, body: req.body()}))
	}
	return out
}
