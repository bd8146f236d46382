// server.go is the sppd HTTP service. The API is JSON over five resource
// families (go 1.22+ method-pattern routing):
//
//	GET  /v1/healthz                  liveness
//	GET  /v1/protocols                the protocol registry with capabilities
//	POST /v1/grids                    submit a GridSpec; ?async=1 returns a
//	                                  job handle instead of blocking
//	GET  /v1/grids/{id}               job status, or the finished GridResult
//	GET  /v1/grids/{id}/events        SSE feed: cell completions, Observe
//	                                  checkpoints, the terminal event
//	GET  /v1/cells/{hash}             a cached cell by content address
//	GET  /v1/cells/{hash}/replay      a bit-exact trial recording for one
//	                                  seed of a cached cell (?seed=K)
//	GET  /v1/stats                    cache and dedup counters
//
// Caching provenance travels ONLY in the X-Sppd-Cache response header —
// never in a body — so a warm response is byte-identical to the cold
// response it repeats. Job ids likewise stay out of result bodies
// (X-Sppd-Job): two submissions of the same grid get different ids but
// identical result bytes.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"sspp"
)

// ResultSchemaVersion identifies the GridResult / CellResult / ReplayResult
// JSON layouts. Bump on any breaking change.
const ResultSchemaVersion = 1

// CellResult is the cached unit: one resolved cell spec, its content
// address, and the aggregated trial statistics the Ensemble computed for
// it. The marshaled bytes are what the cache stores and what every
// response body carries — assembled, never re-marshaled, so byte identity
// is structural rather than an accident of encoder stability.
type CellResult struct {
	SchemaVersion int       `json:"schema_version"`
	Hash          string    `json:"hash"`
	Spec          CellSpec  `json:"spec"`
	Cell          sspp.Cell `json:"cell"`
}

// GridResult is the response body of a finished grid: the cells of the
// cross product in decomposition order, each embedded verbatim as its
// cached CellResult bytes.
type GridResult struct {
	SchemaVersion int               `json:"schema_version"`
	Cells         []json.RawMessage `json:"cells"`
}

// ReplayResult is the response body of /v1/cells/{hash}/replay: the exact
// interaction schedule of one trial of the cell, with the protocol seed
// that trial ran under, so sspp.New + WithScheduler(rec.Replay()) off the
// public API reconstructs the trial bit for bit.
type ReplayResult struct {
	SchemaVersion int    `json:"schema_version"`
	Hash          string `json:"hash"`
	Seed          int    `json:"seed"`
	ProtoSeed     uint64 `json:"proto_seed"`
	// Recording is the versioned JSON written by sspp.Recording.Encode;
	// sspp.DecodeRecording reads it back.
	Recording json.RawMessage `json:"recording"`
}

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent cell computations (0: GOMAXPROCS).
	Workers int
	// CacheEntries bounds the in-memory LRU (0: 4096 cells).
	CacheEntries int
	// Dir, when non-empty, enables the on-disk store under that directory.
	Dir string
	// MaxCells bounds the cross product of a single grid (0: 4096).
	MaxCells int
	// MaxBodyBytes bounds the POST /v1/grids request body (0: 1 MiB).
	MaxBodyBytes int64
	// MaxN bounds Point.N in submitted grids, and the events and population
	// a grid's workload schedules per trial (0: 10,000,000 — the species
	// backend handles that comfortably; raise it for bigger deployments).
	MaxN int
	// MaxSeeds bounds the per-cell trial count (0: 10,000).
	MaxSeeds int
	// MaxTrialInteractions bounds an explicit per-trial interaction budget
	// (0: 1<<40). A spec's MaxInteractions of 0 — "use the protocol's
	// default budget" — is always allowed: that default scales with n,
	// which MaxN already bounds.
	MaxTrialInteractions uint64
}

// flight is one in-progress cell computation; concurrent requests for the
// same content address block on done and share the result (singleflight).
type flight struct {
	done  chan struct{}
	bytes []byte
	err   error
}

// job is one submitted grid.
type job struct {
	id    string
	cells []CellSpec
	keys  []string
	// checkpointEvery is the submitting grid's SSE checkpoint cadence.
	checkpointEvery uint64

	done chan struct{} // closed after result/err and sources are final

	mu sync.Mutex
	// stored holds the frames replayed to late SSE subscribers. Cell
	// completions and the terminal frame are always stored; checkpoint
	// frames are stored up to storedFrameCap (they can number in the
	// thousands per trial) and are live-only past it.
	stored  [][]byte
	subs    []chan []byte
	sources []string // per-cell provenance: computed | dedup | memory | disk
	result  []byte   // marshaled GridResult
	err     error
}

// Server implements the sppd API over a result cache and a bounded
// simulation pool.
type Server struct {
	sem           chan struct{}
	maxCells      int
	maxBody       int64
	maxN          int
	maxSeeds      int
	maxTrialInter uint64
	store         *diskStore // nil without Options.Dir

	mu     sync.Mutex
	cache  *lruCache
	flight map[string]*flight
	jobs   map[string]*job
	order  []string          // job ids in creation order, for eviction
	watch  map[string][]*job // content address -> jobs streaming checkpoints

	jobSeq atomic.Uint64

	grids    atomic.Uint64 // grids accepted
	computed atomic.Uint64 // cells actually simulated
	deduped  atomic.Uint64 // cells coalesced onto an in-flight computation
	memHits  atomic.Uint64 // cells served from the in-memory LRU
	diskHits atomic.Uint64 // cells served from the on-disk store
	replays  atomic.Uint64 // trial recordings computed
	diskErrs atomic.Uint64 // cell and replay writes the on-disk store dropped
}

// maxJobs bounds the retained-job map; the oldest finished jobs are
// evicted past it (a running job is never evicted).
const maxJobs = 256

// NewServer builds a Server. The error is non-nil only when the disk store
// directory cannot be created.
func NewServer(opts Options) (*Server, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	entries := opts.CacheEntries
	if entries <= 0 {
		entries = 4096
	}
	maxCells := opts.MaxCells
	if maxCells <= 0 {
		maxCells = 4096
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	maxN := opts.MaxN
	if maxN <= 0 {
		maxN = 10_000_000
	}
	maxSeeds := opts.MaxSeeds
	if maxSeeds <= 0 {
		maxSeeds = 10_000
	}
	maxTrialInter := opts.MaxTrialInteractions
	if maxTrialInter == 0 {
		maxTrialInter = 1 << 40
	}
	s := &Server{
		sem:           make(chan struct{}, workers),
		maxCells:      maxCells,
		maxBody:       maxBody,
		maxN:          maxN,
		maxSeeds:      maxSeeds,
		maxTrialInter: maxTrialInter,
		cache:         newLRUCache(entries),
		flight:        make(map[string]*flight),
		jobs:          make(map[string]*job),
		watch:         make(map[string][]*job),
	}
	if opts.Dir != "" {
		store, err := newDiskStore(opts.Dir)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	return s, nil
}

// Handler returns the API's http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	mux.HandleFunc("POST /v1/grids", s.handleSubmit)
	mux.HandleFunc("GET /v1/grids/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/grids/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cells/{hash}", s.handleCell)
	mux.HandleFunc("GET /v1/cells/{hash}/replay", s.handleReplay)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	type protoJSON struct {
		Name            string   `json:"name"`
		Description     string   `json:"description"`
		SelfStabilizing bool     `json:"self_stabilizing"`
		Capabilities    []string `json:"capabilities"`
	}
	var out []protoJSON
	for _, info := range sspp.Protocols() {
		out = append(out, protoJSON{info.Name, info.Description, info.SelfStabilizing, info.Capabilities})
	}
	writeJSON(w, http.StatusOK, out)
}

// checkLimits enforces the server's per-request resource caps on a decoded
// grid spec — the endpoint is unauthenticated, so a single submission must
// not be able to pin unbounded memory or CPU. maxCells bounds only the
// cross-product count; these bound the cost of each cell. A workload is
// bounded before any trial compiles it: the engine materializes one event
// per scheduled join or leave, so neither the events a trial schedules nor
// the population they can grow to may exceed maxN. Open-ended phases
// (end 0) run to the trial budget, which is bounded here by
// max_interactions, or by this server's interaction limit when the spec
// leaves the budget to the protocol's default.
func (s *Server) checkLimits(spec *GridSpec) error {
	horizon := spec.MaxInteractions
	if horizon == 0 {
		horizon = s.maxTrialInter
	}
	for _, pt := range spec.Points {
		if pt.N > s.maxN {
			return fmt.Errorf("point n=%d is over this server's %d-agent limit", pt.N, s.maxN)
		}
		events, peak := 0.0, float64(pt.N)
		for _, p := range spec.Workload {
			e, j := p.load(pt.N, horizon)
			events += e
			peak += j
		}
		if events > float64(s.maxN) || peak > float64(s.maxN) {
			return fmt.Errorf("the workload schedules %.3g events and up to %.3g agents at n=%d, "+
				"over this server's %d limit (bound open-ended phases with end or max_interactions)",
				events, peak, pt.N, s.maxN)
		}
	}
	if spec.Seeds > s.maxSeeds {
		return fmt.Errorf("seeds=%d is over this server's %d-seed limit", spec.Seeds, s.maxSeeds)
	}
	if spec.MaxInteractions > s.maxTrialInter {
		return fmt.Errorf("max_interactions=%d is over this server's %d-interaction limit",
			spec.MaxInteractions, s.maxTrialInter)
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec GridSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"grid spec over this server's %d-byte body limit", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad grid spec: %v", err)
		return
	}
	if err := s.checkLimits(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells, err := spec.Cells()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(cells) > s.maxCells {
		httpError(w, http.StatusBadRequest,
			"grid crosses to %d cells, over this server's %d-cell limit", len(cells), s.maxCells)
		return
	}
	// Fail fast: every cell must compile to a valid one-cell Ensemble
	// before anything runs, so an illegal combination deep in the cross
	// product rejects the whole grid instead of surfacing mid-run.
	keys := make([]string, len(cells))
	for i := range cells {
		if _, err := cells[i].ensemble(); err != nil {
			httpError(w, http.StatusBadRequest, "cell %d (%s): %v", i, cells[i].Hash()[:12], err)
			return
		}
		keys[i] = cells[i].Hash()
	}
	j := s.newJob(spec, cells, keys)
	s.grids.Add(1)
	go s.runJob(j)

	w.Header().Set("X-Sppd-Job", j.id)
	if r.URL.Query().Get("async") == "1" {
		writeJSON(w, http.StatusAccepted, map[string]any{
			"job": j.id, "status": "running", "cells": keys,
		})
		return
	}
	<-j.done
	s.writeJobResult(w, j)
}

// newJob registers a job and its checkpoint watches.
func (s *Server) newJob(spec GridSpec, cells []CellSpec, keys []string) *job {
	j := &job{
		id:              fmt.Sprintf("j-%d", s.jobSeq.Add(1)),
		cells:           cells,
		keys:            keys,
		checkpointEvery: spec.CheckpointEvery,
		done:            make(chan struct{}),
		sources:         make([]string, len(cells)),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictJobsLocked()
	if j.checkpointEvery > 0 {
		for i, key := range keys {
			if cells[i].observationInert() {
				s.watch[key] = append(s.watch[key], j)
			}
		}
	}
	return j
}

// evictJobsLocked drops the oldest finished jobs over maxJobs.
func (s *Server) evictJobsLocked() {
	for len(s.jobs) > maxJobs {
		evicted := false
		for i, id := range s.order {
			j, ok := s.jobs[id]
			if !ok {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			select {
			case <-j.done:
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything old is still running; let the map grow
		}
	}
}

// runJob computes every cell of the job (concurrently, bounded by the
// server pool), assembles the GridResult, and closes the job.
func (s *Server) runJob(j *job) {
	results := make([][]byte, len(j.cells))
	errs := make([]error, len(j.cells))
	var wg sync.WaitGroup
	for i := range j.cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, source, err := s.cellBytes(&j.cells[i], j.keys[i], j.checkpointEvery)
			results[i], errs[i] = b, err
			j.mu.Lock()
			j.sources[i] = source
			j.mu.Unlock()
			if err != nil {
				j.emit("cell", map[string]any{"index": i, "hash": j.keys[i], "error": err.Error()}, true)
			} else {
				j.emit("cell", map[string]any{"index": i, "hash": j.keys[i], "source": source}, true)
			}
		}(i)
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	j.mu.Lock()
	if firstErr != nil {
		j.err = firstErr
	} else {
		raw := make([]json.RawMessage, len(results))
		for i, b := range results {
			raw[i] = b
		}
		j.result, j.err = json.Marshal(GridResult{SchemaVersion: ResultSchemaVersion, Cells: raw})
	}
	j.mu.Unlock()

	s.mu.Lock()
	for _, key := range j.keys {
		watchers := s.watch[key]
		for i, wj := range watchers {
			if wj == j {
				s.watch[key] = append(watchers[:i:i], watchers[i+1:]...)
				break
			}
		}
		if len(s.watch[key]) == 0 {
			delete(s.watch, key)
		}
	}
	s.mu.Unlock()

	if j.err != nil {
		j.emit("error", map[string]string{"error": j.err.Error()}, true)
	} else {
		j.emit("done", map[string]string{"job": j.id}, true)
	}
	close(j.done)
}

// cellBytes returns the marshaled CellResult for the cell, from (in order)
// the in-memory LRU, an identical in-flight computation, the disk store,
// or a fresh simulation on the bounded pool. The source return names which
// (memory | dedup | disk | computed).
func (s *Server) cellBytes(cs *CellSpec, key string, checkpointEvery uint64) (b []byte, source string, err error) {
	s.mu.Lock()
	if b := s.cache.get(key); b != nil {
		s.mu.Unlock()
		s.memHits.Add(1)
		return b, "memory", nil
	}
	if fl, ok := s.flight[key]; ok {
		s.mu.Unlock()
		s.deduped.Add(1)
		<-fl.done
		return fl.bytes, "dedup", fl.err
	}
	fl := &flight{done: make(chan struct{})}
	s.flight[key] = fl
	s.mu.Unlock()

	defer func() {
		fl.bytes, fl.err = b, err
		s.mu.Lock()
		delete(s.flight, key)
		if err == nil {
			s.cache.put(key, b)
		}
		s.mu.Unlock()
		close(fl.done)
	}()

	if s.store != nil {
		if b := s.store.getCell(key); b != nil {
			s.diskHits.Add(1)
			return b, "disk", nil
		}
	}

	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	g, err := cs.compileGrid()
	if err != nil {
		return nil, "", err
	}
	// Each cell's seeds run sequentially (Workers(1)); the server pool is
	// the only parallelism. Checkpoints attach only where observation is
	// provably inert (see CellSpec.observationInert), so the observed
	// computation is bit-identical to an unobserved one and the cadence
	// stays out of the content address. When concurrent jobs race to
	// compute the same cell, the winner's cadence drives everyone's feed —
	// checkpoints are best-effort telemetry, not part of the result.
	opts := []sspp.EnsembleOption{sspp.Workers(1)}
	if checkpointEvery > 0 && cs.observationInert() {
		opts = append(opts, sspp.ObserveTrials(checkpointEvery, func(obs sspp.TrialObservation) {
			s.broadcast(key, obs)
		}))
	}
	ens, err := sspp.NewEnsemble(g, opts...)
	if err != nil {
		return nil, "", err
	}
	res := ens.Run()
	s.computed.Add(1)
	b, err = json.Marshal(CellResult{
		SchemaVersion: ResultSchemaVersion,
		Hash:          key,
		Spec:          *cs,
		Cell:          res.Cells[0],
	})
	if err != nil {
		return nil, "", err
	}
	if s.store != nil {
		// Best effort: the disk layer is an accelerator, so a failed write
		// only shows in the stats.
		if s.store.putCell(key, b) != nil {
			s.diskErrs.Add(1)
		}
	}
	return b, "computed", nil
}

// broadcast fans one trial checkpoint out to every job watching the cell.
func (s *Server) broadcast(key string, obs sspp.TrialObservation) {
	s.mu.Lock()
	watchers := append([]*job(nil), s.watch[key]...)
	s.mu.Unlock()
	if len(watchers) == 0 {
		return
	}
	payload := map[string]any{
		"hash": key,
		"seed": obs.Seed,
		"snapshot": map[string]any{
			"interactions":  obs.Snapshot.Interactions,
			"parallel_time": obs.Snapshot.ParallelTime,
			"leaders":       obs.Snapshot.Leaders,
			"resetting":     obs.Snapshot.Resetting,
			"ranking":       obs.Snapshot.Ranking,
			"verifying":     obs.Snapshot.Verifying,
			"hard_resets":   obs.Snapshot.HardResets,
			"in_safe_set":   obs.Snapshot.InSafeSet,
		},
	}
	for _, j := range watchers {
		j.emit("checkpoint", payload, false)
	}
}

// storedFrameCap bounds the checkpoint frames a job retains for replay to
// late subscribers; sticky frames (cell completions, the terminal frame)
// are always retained.
const storedFrameCap = 1024

// subscriberBuffer is the live checkpoint buffer of one SSE subscriber. Its
// channel has room for the job's sticky frames on top of it.
const subscriberBuffer = 256

// emit frames an SSE event and delivers it: stored frames replay to late
// subscribers, live frames go to current subscribers only. A slow
// subscriber drops checkpoint frames rather than blocking simulation, but
// never a sticky frame: checkpoints cannot take the room reserved for them.
func (j *job) emit(event string, payload any, sticky bool) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	frame := []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, data))
	j.mu.Lock()
	defer j.mu.Unlock()
	if sticky || len(j.stored) < storedFrameCap {
		j.stored = append(j.stored, frame)
	}
	for _, ch := range j.subs {
		if !sticky && len(ch) >= subscriberBuffer {
			continue
		}
		select {
		case ch <- frame:
		default:
		}
	}
}

// subscribe returns the replay of stored frames plus a live channel, and
// an unsubscribe func.
func (j *job) subscribe() (replay [][]byte, ch chan []byte, cancel func()) {
	// One sticky frame per cell plus the terminal frame.
	ch = make(chan []byte, subscriberBuffer+len(j.keys)+1)
	j.mu.Lock()
	replay = append([][]byte(nil), j.stored...)
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	cancel = func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i:i], j.subs[i+1:]...)
				return
			}
		}
	}
	return replay, ch, cancel
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// writeJobResult serves a finished job: the GridResult bytes with cache
// provenance in X-Sppd-Cache ("computed=1 dedup=0 memory=3 disk=0").
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	j.mu.Lock()
	result, err, sources := j.result, j.err, append([]string(nil), j.sources...)
	j.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	counts := map[string]int{}
	for _, src := range sources {
		counts[src]++
	}
	w.Header().Set("X-Sppd-Cache", fmt.Sprintf("computed=%d dedup=%d memory=%d disk=%d",
		counts["computed"], counts["dedup"], counts["memory"], counts["disk"]))
	w.Header().Set("X-Sppd-Job", j.id)
	w.Header().Set("Content-Type", "application/json")
	w.Write(result)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	select {
	case <-j.done:
		s.writeJobResult(w, j)
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{
			"job": j.id, "status": "running", "cells": j.keys,
		})
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, ch, cancel := j.subscribe()
	defer cancel()
	for _, frame := range replay {
		w.Write(frame)
	}
	flusher.Flush()
	// A post-completion subscriber returns immediately — but the job may
	// have finished between subscribe() (replay copied) and here, with the
	// terminal frame enqueued on ch rather than in the replay, so drain ch
	// before returning.
	select {
	case <-j.done:
		for {
			select {
			case frame := <-ch:
				w.Write(frame)
				flusher.Flush()
			default:
				return
			}
		}
	default:
	}
	for {
		select {
		case frame := <-ch:
			w.Write(frame)
			flusher.Flush()
		case <-j.done:
			// Drain what the emitter enqueued before closing.
			for {
				select {
				case frame := <-ch:
					w.Write(frame)
					flusher.Flush()
				default:
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// lookupCell fetches cached cell bytes by content address: LRU first, then
// disk (promoting the hit into the LRU). No simulation — /v1/cells is a
// read-only view of the cache.
func (s *Server) lookupCell(key string) (b []byte, source string) {
	s.mu.Lock()
	b = s.cache.get(key)
	s.mu.Unlock()
	if b != nil {
		s.memHits.Add(1)
		return b, "memory"
	}
	if s.store != nil {
		if b = s.store.getCell(key); b != nil {
			s.diskHits.Add(1)
			s.mu.Lock()
			s.cache.put(key, b)
			s.mu.Unlock()
			return b, "disk"
		}
	}
	return nil, ""
}

// validHash reports whether key is a well-formed cell content address:
// exactly 64 lowercase hex characters (the SHA-256 encoding hash.go
// emits). The router percent-decodes path segments, so an unvalidated
// {hash} could smuggle "../" into diskStore paths; anything but a
// canonical address is rejected before it reaches the cache or the store.
func validHash(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("hash")
	if !validHash(key) {
		httpError(w, http.StatusNotFound, "no cached cell %q (addresses are 64 lowercase hex characters)", key)
		return
	}
	b, source := s.lookupCell(key)
	if b == nil {
		httpError(w, http.StatusNotFound, "no cached cell %q (cells appear once a grid computes them)", key)
		return
	}
	w.Header().Set("X-Sppd-Cache", source)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("hash")
	if !validHash(key) {
		httpError(w, http.StatusNotFound, "no cached cell %q (addresses are 64 lowercase hex characters)", key)
		return
	}
	seed := 0
	if q := r.URL.Query().Get("seed"); q != "" {
		var err error
		if seed, err = strconv.Atoi(q); err != nil {
			httpError(w, http.StatusBadRequest, "bad seed %q: %v", q, err)
			return
		}
	}
	cellBytes, _ := s.lookupCell(key)
	if cellBytes == nil {
		httpError(w, http.StatusNotFound, "no cached cell %q (replays derive from cached cells)", key)
		return
	}
	if s.store != nil {
		if b := s.store.getReplay(key, seed); b != nil {
			w.Header().Set("X-Sppd-Cache", "disk")
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
			return
		}
	}
	var cr CellResult
	if err := json.Unmarshal(cellBytes, &cr); err != nil {
		httpError(w, http.StatusInternalServerError, "corrupt cached cell: %v", err)
		return
	}
	ens, err := cr.Spec.ensemble()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// A replay re-runs one full trial, so it takes a pool slot like any
	// other simulation. Released by defer so a panicking trial (recovered
	// by net/http) cannot leak the slot and shrink the pool.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	rec, protoSeed, err := ens.TrialRecording(0, seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, "encode recording: %v", err)
		return
	}
	s.replays.Add(1)
	b, err := json.Marshal(ReplayResult{
		SchemaVersion: ResultSchemaVersion,
		Hash:          key,
		Seed:          seed,
		ProtoSeed:     protoSeed,
		Recording:     buf.Bytes(),
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if s.store != nil && s.store.putReplay(key, seed, b) != nil {
		s.diskErrs.Add(1) // best effort, as for cells
	}
	w.Header().Set("X-Sppd-Cache", "computed")
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	entries := s.cache.len()
	inflight := len(s.flight)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"grids":             s.grids.Load(),
		"cells_computed":    s.computed.Load(),
		"dedup_hits":        s.deduped.Load(),
		"memory_hits":       s.memHits.Load(),
		"disk_hits":         s.diskHits.Load(),
		"replays":           s.replays.Load(),
		"disk_write_errors": s.diskErrs.Load(),
		"cache_entries":     entries,
		"in_flight":         inflight,
		"workers":           cap(s.sem),
		"hash_version":      HashVersion,
		"engine_epoch":      EngineEpoch,
		"schema_version":    ResultSchemaVersion,
	})
}
