// cover_test.go exercises the service surfaces the main tests reach only
// incidentally: the health endpoint, the workload-phase compiler, replay
// persistence, LRU eviction under a tiny cache, and the not-found paths.

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"sspp"
)

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok": true`) {
		t.Fatalf("healthz: status %d, body %s", resp.StatusCode, b)
	}
}

// TestPhaseSpecCompile maps every phase kind through its public
// constructor; the kinds must stay in sync with the sspp workload API.
func TestPhaseSpecCompile(t *testing.T) {
	specs := []PhaseSpec{
		{Kind: "transient-burst", At: 100, K: 4, Seed: 7},
		{Kind: "reinjection", At: 200, Class: "two-leaders", Seed: 7},
		{Kind: "join", At: 300, Seed: 7},
		{Kind: "leave", At: 400, Seed: 7},
		{Kind: "replacement-churn", Start: 100, End: 900, Rate: 0.01, Seed: 7},
		{Kind: "join-leave-churn", Start: 100, End: 900, Rate: 0.01, JoinFrac: 0.5, Seed: 7},
		{Kind: "churn-bursts", Start: 100, End: 900, Every: 200, Joins: 2, Leaves: 2, Seed: 7},
		{Kind: "population-step", At: 500, Delta: 8, Seed: 7},
	}
	for _, p := range specs {
		if _, err := p.compile(); err != nil {
			t.Errorf("compile(%q): %v", p.Kind, err)
		}
	}
	if _, err := (PhaseSpec{Kind: "meteor-strike"}).compile(); err == nil {
		t.Error("unknown phase kind compiled")
	}
}

// TestWorkloadGridEndToEnd submits a grid with a workload schedule: the
// phases must compile into the per-cell ensemble, move the content
// address, and produce results matching a direct sspp run of the same
// spec.
func TestWorkloadGridEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	spec := smallGrid()
	spec.Workload = []PhaseSpec{{Kind: "transient-burst", At: 500, K: 4, Seed: 7}}
	code, body, _ := submit(t, ts, spec, "")
	if code != http.StatusOK {
		t.Fatalf("workload submit: status %d, body %s", code, body)
	}
	var gr GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	var cr CellResult
	if err := json.Unmarshal(gr.Cells[0], &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Spec.Workload) != 1 || cr.Spec.Workload[0].Kind != "transient-burst" {
		t.Fatalf("resolved spec lost the workload: %+v", cr.Spec.Workload)
	}

	// The workload is part of the content address.
	plain := smallGrid()
	plainCells, err := plain.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Hash == plainCells[0].Hash() {
		t.Fatal("workload did not move the cell hash")
	}

	// Same spec straight through the public API: identical cell.
	direct, err := sspp.NewEnsemble(sspp.Grid{
		Protocols: []string{cr.Spec.Protocol},
		Backend:   cr.Spec.Backend,
		Points:    []sspp.Point{cr.Spec.Point},
		Seeds:     cr.Spec.Seeds,
		BaseSeed:  cr.Spec.BaseSeed,
		Workload:  sspp.NewWorkload(sspp.TransientBurst(500, 4, 7)),
	}, sspp.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Run().Cells[0]
	if cr.Cell.Recovered != want.Recovered || !bytes.Equal(mustJSON(t, cr.Cell.Samples), mustJSON(t, want.Samples)) {
		t.Fatalf("served workload cell diverges from the direct run:\nserve: %+v\ndirect: %+v", cr.Cell, want)
	}

	// An unknown phase kind is rejected up front.
	bad := smallGrid()
	bad.Workload = []PhaseSpec{{Kind: "meteor-strike"}}
	if code, body, _ := submit(t, ts, bad, ""); code != http.StatusBadRequest {
		t.Fatalf("unknown phase kind: status %d, body %s", code, body)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayPersistsToDisk asserts the replay store round-trip: the first
// request computes and persists, the repeat serves the identical bytes
// from disk without taking a pool slot.
func TestReplayPersistsToDisk(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Dir: t.TempDir()})

	code, body, _ := submit(t, ts, smallGrid(), "")
	if code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	var gr GridResult
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	var cr CellResult
	if err := json.Unmarshal(gr.Cells[0], &cr); err != nil {
		t.Fatal(err)
	}

	get := func(url string) (int, []byte, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b, resp.Header.Get("X-Sppd-Cache")
	}

	url := fmt.Sprintf("%s/v1/cells/%s/replay?seed=0", ts.URL, cr.Hash)
	code, first, src := get(url)
	if code != http.StatusOK || src != "computed" {
		t.Fatalf("first replay: status %d, source %q", code, src)
	}
	code, second, src := get(url)
	if code != http.StatusOK || src != "disk" {
		t.Fatalf("repeat replay: status %d, source %q", code, src)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("disk-served replay is not byte-identical to the computed one")
	}

	if code, _, _ := get(fmt.Sprintf("%s/v1/cells/%s/replay?seed=banana", ts.URL, cr.Hash)); code != http.StatusBadRequest {
		t.Fatalf("malformed seed: status %d", code)
	}
}

// TestLRUEvictionFallsBackToDisk pins the cache hierarchy with a
// one-entry LRU: computing a second cell evicts the first from memory,
// and the evicted cell comes back from disk (promoted), not a re-compute.
func TestLRUEvictionFallsBackToDisk(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, CacheEntries: 1, Dir: t.TempDir()})

	first := smallGrid()
	second := smallGrid()
	second.BaseSeed = 1

	for _, g := range []GridSpec{first, second} {
		if code, body, _ := submit(t, ts, g, ""); code != http.StatusOK {
			t.Fatalf("submit: status %d, body %s", code, body)
		}
	}
	_, _, resp := submit(t, ts, first, "")
	if got := resp.Header.Get("X-Sppd-Cache"); got != "computed=0 dedup=0 memory=0 disk=1" {
		t.Fatalf("evicted cell provenance = %q, want a disk hit", got)
	}
	if got := s.counts[srcComputed].Load(); got != 2 {
		t.Fatalf("computed %d cells, want 2 (eviction must not force a re-compute)", got)
	}
}

func TestUnknownJobAndCellAre404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, path := range []string{"/v1/grids/j-999", "/v1/grids/j-999/events", "/v1/cells/feedface/replay"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
