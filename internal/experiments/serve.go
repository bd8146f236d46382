// serve.go implements experiment S4: the cache behaviour of the sppd
// simulation service (cmd/sppd, internal/serve). The service's claim is
// architectural, not statistical — a cell's result is a pure function of
// its resolved config, so a content-addressed cache can serve warm repeats
// byte-identically without re-simulating — and S4 records what that buys:
// the provenance and hit ratio of each request in a cold, warm and
// overlapping mix, and singleflight dedup under concurrent identical
// submissions. Byte-identity itself is enforced by internal/serve's tests;
// cold and warm latency are timed by bench/ (sppd-cold, sppd-warm).

package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"

	"sspp"
	"sspp/internal/serve"
)

// s4Grid is one request of the S4 mix.
type s4Grid struct {
	phase string // row label
	spec  serve.GridSpec
}

// s4Mix builds the request sequence: a cold grid, its warm repeat, an
// overlapping superset (half shared cells, half new), and the warm repeat
// of the superset.
func s4Mix(cfg Config) []s4Grid {
	pts := []sspp.Point{{N: 96, R: 8}, {N: 128, R: 16}}
	extra := []sspp.Point{{N: 160, R: 16}, {N: 192, R: 16}}
	if cfg.Quick {
		pts = []sspp.Point{{N: 48, R: 8}, {N: 64, R: 8}}
		extra = []sspp.Point{{N: 80, R: 8}, {N: 96, R: 8}}
	}
	base := serve.GridSpec{Points: pts, Seeds: cfg.seeds(), BaseSeed: cfg.BaseSeed}
	super := base
	super.Points = append(append([]sspp.Point(nil), pts...), extra...)
	return []s4Grid{
		{"cold", base},
		{"warm repeat", base},
		{"overlap cold", super},
		{"overlap warm", super},
	}
}

// s4Provenance is the parsed X-Sppd-Cache header ("computed=1 dedup=0
// memory=0 disk=0").
type s4Provenance struct {
	computed, dedup, memory, disk int
}

func parseProvenance(h string) (p s4Provenance) {
	fmt.Sscanf(h, "computed=%d dedup=%d memory=%d disk=%d",
		&p.computed, &p.dedup, &p.memory, &p.disk)
	return p
}

func (p s4Provenance) cells() int { return p.computed + p.dedup + p.memory + p.disk }

// hitRatio is the fraction of cells served without simulating.
func (p s4Provenance) hitRatio() float64 {
	if p.cells() == 0 {
		return 0
	}
	return float64(p.dedup+p.memory+p.disk) / float64(p.cells())
}

// s4Submit posts the grid synchronously and returns the provenance and
// the response bytes.
func s4Submit(ts *httptest.Server, spec serve.GridSpec) (s4Provenance, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return s4Provenance{}, nil, err
	}
	resp, err := http.Post(ts.URL+"/v1/grids", "application/json", bytes.NewReader(body))
	if err != nil {
		return s4Provenance{}, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return s4Provenance{}, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return s4Provenance{}, nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return parseProvenance(resp.Header.Get("X-Sppd-Cache")), b, nil
}

// S4ServeCache records the sppd result cache: provenance and hit ratios
// for repeated and overlapping grids, then singleflight dedup under
// concurrent identical submissions.
func S4ServeCache(cfg Config) *Table {
	t := &Table{
		ID:    "S4",
		Title: "sppd result cache: cold vs warm provenance, hit ratios, singleflight dedup",
		Claim: "cell results are pure functions of their resolved configs (trials.Derive), so warm " +
			"repeats are served from the content-addressed cache byte-identically without simulating; " +
			"overlapping grids re-compute only their new cells",
		Header: []string{"request", "cells", "computed", "cache-hits", "hit-ratio"},
	}
	srv, err := serve.NewServer(serve.Options{Workers: cfg.workers()})
	if err != nil {
		t.Note("server construction failed: %v", err)
		return t
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make(map[string][]byte)
	for _, g := range s4Mix(cfg) {
		prov, body, err := s4Submit(ts, g.spec)
		if err != nil {
			t.Note("%s failed: %v", g.phase, err)
			continue
		}
		t.Append(g.phase, fmt.Sprintf("%d", prov.cells()), fmt.Sprintf("%d", prov.computed),
			fmt.Sprintf("%d", prov.dedup+prov.memory+prov.disk), fmtF(prov.hitRatio(), 2))

		// Byte-identity spot check: repeats of a spec must serve the exact
		// bytes of its first response.
		key := fmt.Sprintf("%d-points", len(g.spec.Points))
		if prev, ok := bodies[key]; ok && !bytes.Equal(prev, body) {
			t.Note("BYTE-IDENTITY VIOLATION on %s: warm bytes differ from cold", g.phase)
		}
		bodies[key] = body
	}

	// Singleflight: flood a fresh cell with identical concurrent
	// submissions; the server must simulate once and coalesce the rest.
	flood := serve.GridSpec{Points: []sspp.Point{{N: 72, R: 8}}, Seeds: cfg.seeds(), BaseSeed: cfg.BaseSeed}
	const clients = 6
	provs := make([]s4Provenance, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prov, _, err := s4Submit(ts, flood)
			if err == nil {
				provs[i] = prov
			}
		}(i)
	}
	wg.Wait()
	var total s4Provenance
	for _, p := range provs {
		total.computed += p.computed
		total.dedup += p.dedup
		total.memory += p.memory
		total.disk += p.disk
	}
	t.Append(fmt.Sprintf("%d concurrent identical", clients), fmt.Sprintf("%d", total.cells()),
		fmt.Sprintf("%d", total.computed), fmt.Sprintf("%d", total.dedup+total.memory+total.disk),
		fmtF(total.hitRatio(), 2))
	if total.computed != 1 {
		t.Note("SINGLEFLIGHT VIOLATION: %d concurrent identical submissions simulated %d cells, want 1",
			clients, total.computed)
	}
	t.Note("cold and warm latency are timed by bench/ (sppd-cold, sppd-warm), not here")
	return t
}
