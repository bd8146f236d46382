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
// is structural rather than an accident of encoder stability. Bytes enter
// the cache only in canonical form (compact and HTML-escaped, as
// json.Marshal writes them; see diskStore.get), so a grid body
// stitched from them equals json.Marshal of its GridResult.
type CellResult struct {
	SchemaVersion int       `json:"schema_version"`
	Hash          string    `json:"hash"`
	Spec          CellSpec  `json:"spec"`
	Cell          sspp.Cell `json:"cell"`
}

// GridResult is the response body of a finished grid: the cells of the
// cross product in decomposition order, each embedded verbatim as its
// cached CellResult bytes. The server writes it without marshaling it (see
// writeJobResult); the type documents the layout and decodes it.
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

// source names the layer of the lookup chain a cell or recording came from.
type source uint8

const (
	srcComputed source = iota // simulated for this job
	srcDedup                  // coalesced onto an identical in-flight computation
	srcMemory                 // the in-memory LRU
	srcDisk                   // the on-disk store
	numSources
)

// sourceNames are the words X-Sppd-Cache and the SSE cell frames carry,
// in X-Sppd-Cache order.
var sourceNames = [numSources]string{"computed", "dedup", "memory", "disk"}

// flight is one in-progress computation of a cell or recording; concurrent
// requests for it block on done and share the result (singleflight).
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
	// ens[i] is cell i's Ensemble, compiled and validated at submit, until
	// the cell has run; nil for memory hits, and all of it when every cell
	// was one.
	ens             []*sspp.Ensemble
	checkpointEvery uint64 // the submitting grid's SSE checkpoint cadence

	// results[i] is cell i's CellResult bytes: the slice the cache holds,
	// shared, never copied or written. Memory hits are filled at submit;
	// runJob fills the misses, each from its own goroutine. sources[i] is
	// where results[i] came from.
	results [][]byte
	sources []source
	err     error
	done    chan struct{} // closed once results, sources and err are final

	mu sync.Mutex
	// stored holds the frames replayed to late SSE subscribers. Cell
	// completions and the terminal frame are always stored; checkpoint
	// frames are stored up to storedFrameCap (they can number in the
	// thousands per trial) and are live-only past it.
	stored [][]byte
	subs   []chan []byte
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

	grids    atomic.Uint64             // grids accepted
	counts   [numSources]atomic.Uint64 // cells served, by source
	replays  [numSources]atomic.Uint64 // trial recordings served, by source
	diskErrs atomic.Uint64             // cell and replay writes the on-disk store dropped
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
	// One hash per cell, and the lookup chain's memory layer for the whole
	// grid under one lock. Fail fast: every other cell must compile to a
	// valid one-cell Ensemble before anything runs, so an illegal
	// combination deep in the cross product rejects the whole grid instead
	// of surfacing mid-run; the Ensemble compiled here is the one that runs.
	// A memory-resident cell skips the compile: its address entered the
	// cache only once its cell had compiled and run.
	keys := make([]string, len(cells))
	for i := range cells {
		keys[i] = cells[i].Hash()
	}
	results := make([][]byte, len(cells))
	s.mu.Lock()
	for i, key := range keys {
		results[i] = s.cache.get(key)
	}
	s.mu.Unlock()
	var ens []*sspp.Ensemble
	hits := 0
	for i := range cells {
		if results[i] != nil {
			hits++
			continue
		}
		if ens == nil {
			ens = make([]*sspp.Ensemble, len(cells))
		}
		// Checkpoints attach only where observation is provably inert (see
		// CellSpec.observationInert), so the cadence stays out of the content
		// address. Jobs racing to compute one cell share the winner's feed:
		// checkpoints are best-effort telemetry, not part of the result.
		var opts []sspp.EnsembleOption
		if spec.CheckpointEvery > 0 && cells[i].observationInert() {
			key := keys[i]
			opts = append(opts, sspp.ObserveTrials(spec.CheckpointEvery, func(obs sspp.TrialObservation) {
				s.broadcast(key, obs)
			}))
		}
		if ens[i], err = cells[i].ensemble(opts...); err != nil {
			httpError(w, http.StatusBadRequest, "cell %d (%s): %v", i, keys[i][:12], err)
			return
		}
	}
	j := s.newJob(spec, cells, keys, results, ens)
	s.grids.Add(1)
	s.counts[srcMemory].Add(uint64(hits))

	if r.URL.Query().Get("async") == "1" {
		go s.runJob(j)
		w.Header().Set("X-Sppd-Job", j.id)
		writeJSON(w, http.StatusAccepted, map[string]any{
			"job": j.id, "status": "running", "cells": keys,
		})
		return
	}
	s.runJob(j)
	s.writeJobResult(w, j)
}

// newJob registers a job and its checkpoint watches. results holds the
// memory hits found at submit; ens holds the other cells' Ensembles.
func (s *Server) newJob(spec GridSpec, cells []CellSpec, keys []string, results [][]byte, ens []*sspp.Ensemble) *job {
	j := &job{
		id:              "j-" + strconv.FormatUint(s.jobSeq.Add(1), 10),
		cells:           cells,
		keys:            keys,
		ens:             ens,
		checkpointEvery: spec.CheckpointEvery,
		results:         results,
		sources:         make([]source, len(cells)),
		done:            make(chan struct{}),
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

// evictJobsLocked drops the oldest finished jobs until at most maxJobs
// remain, in one pass over the creation order that stops once they do. A
// running job is never evicted; order entries whose job is gone are
// dropped.
func (s *Server) evictJobsLocked() {
	excess := len(s.jobs) - maxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		if excess == 0 {
			kept = append(kept, s.order[i:]...)
			break
		}
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		select {
		case <-j.done:
			delete(s.jobs, id)
			excess--
		default:
			kept = append(kept, id)
		}
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// runJob fills the job's missing cells, each on its own goroutine (the
// server pool bounds the simulations), and closes the job. Memory hits
// only announce themselves, so a job of hits starts no goroutine.
func (s *Server) runJob(j *job) {
	errs := make([]error, len(j.results))
	var wg sync.WaitGroup
	for i, b := range j.results {
		if b != nil {
			j.sources[i] = srcMemory
			j.emit(cellFrame(i, j.keys[i], srcMemory, nil), true)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ens, cs, key := j.ens[i], &j.cells[i], j.keys[i]
			b, src, err := s.lookup(entry{key: key}, func() ([]byte, error) {
				return json.Marshal(CellResult{
					SchemaVersion: ResultSchemaVersion,
					Hash:          key,
					Spec:          *cs,
					Cell:          ens.Run().Cells[0],
				})
			})
			j.ens[i] = nil
			j.results[i], j.sources[i], errs[i] = b, src, err
			j.emit(cellFrame(i, key, src, err), true)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			j.err = err
			break
		}
	}

	if j.checkpointEvery > 0 {
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
	}

	if j.err != nil {
		j.emit(errorFrame(j.err), true)
	} else {
		j.emit(doneFrame(j.id), true)
	}
	close(j.done)
}

// entry names what the lookup chain fetches: the cell at key or, when
// replay, the recording of one seed's trial of that cell.
type entry struct {
	key    string
	replay bool
	seed   int
}

// errAbandoned reaches the joiners of a flight whose computation panicked.
var errAbandoned = errors.New("serve: the computation this request joined did not finish")

// lookup is the one lookup chain, for cells and recordings alike: the
// in-memory LRU (cells only; a recording can be megabytes), an identical
// in-flight computation, the disk store, then compute on the bounded pool.
// It counts each outcome by its source and fills the LRU and the store. A
// submit probes the LRU for its whole grid under one lock; its misses then
// run this chain. With compute nil the chain is read-only: it skips the
// flights and stops after disk, so a cell still computing is a miss (nil).
func (s *Server) lookup(e entry, compute func() ([]byte, error)) (b []byte, src source, err error) {
	tally, fkey := &s.counts, e.key
	if e.replay {
		tally, fkey = &s.replays, e.key+"/"+strconv.Itoa(e.seed)
	}
	s.mu.Lock()
	if !e.replay {
		if b = s.cache.get(e.key); b != nil {
			s.mu.Unlock()
			tally[srcMemory].Add(1)
			return b, srcMemory, nil
		}
	}
	var fl *flight
	if compute != nil {
		if joined := s.flight[fkey]; joined != nil {
			s.mu.Unlock()
			tally[srcDedup].Add(1)
			<-joined.done
			return joined.bytes, srcDedup, joined.err
		}
		fl = &flight{done: make(chan struct{})}
		s.flight[fkey] = fl
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if fl != nil {
			delete(s.flight, fkey)
		}
		if b != nil && !e.replay {
			s.cache.put(e.key, b)
		}
		s.mu.Unlock()
		if fl != nil {
			fl.bytes, fl.err = b, err
			if b == nil && err == nil {
				fl.err = errAbandoned
			}
			close(fl.done)
		}
	}()

	if s.store != nil {
		if b = s.store.get(e); b != nil {
			tally[srcDisk].Add(1)
			return b, srcDisk, nil
		}
	}
	if compute == nil {
		return nil, 0, nil
	}
	// Released by defer so a panicking computation (a replay's is recovered
	// by net/http) cannot leak the slot and shrink the pool.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	if b, err = compute(); err != nil {
		return nil, srcComputed, err
	}
	tally[srcComputed].Add(1)
	// Best effort: the disk layer is an accelerator, so a failed write only
	// shows in the stats.
	if s.store != nil && s.store.put(e, b) != nil {
		s.diskErrs.Add(1)
	}
	return b, srcComputed, nil
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
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	frame := fmt.Appendf(nil, "event: checkpoint\ndata: %s\n\n", data)
	for _, j := range watchers {
		j.emit(frame, false)
	}
}

// cellFrame is the SSE frame announcing cell i: event "cell" with data
// {"hash","index","source"}, or {"error","hash","index"} when the cell
// failed — the bytes json.Marshal writes for that map. The hash is hex
// and the source one of four words, so only an error message needs JSON
// string encoding.
func cellFrame(i int, key string, src source, err error) []byte {
	b := make([]byte, 0, 128)
	b = append(b, "event: cell\ndata: {"...)
	if err != nil {
		b = append(b, `"error":`...)
		b = appendJSONString(b, err.Error())
		b = append(b, ',')
	}
	b = append(b, `"hash":"`...)
	b = append(b, key...)
	b = append(b, `","index":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	if err == nil {
		b = append(b, `,"source":"`...)
		b = append(b, sourceNames[src]...)
		b = append(b, '"')
	}
	return append(b, "}\n\n"...)
}

// doneFrame is the terminal SSE frame of a finished job, {"job":id}; job
// ids are "j-" and digits.
func doneFrame(id string) []byte {
	return append(append([]byte("event: done\ndata: {\"job\":\""), id...), "\"}\n\n"...)
}

// errorFrame is the terminal SSE frame of a failed job, {"error":msg}.
func errorFrame(err error) []byte {
	b := appendJSONString([]byte("event: error\ndata: {\"error\":"), err.Error())
	return append(b, "}\n\n"...)
}

// appendJSONString appends s as json.Marshal encodes a string.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// storedFrameCap bounds the checkpoint frames a job retains for replay to
// late subscribers; sticky frames (cell completions, the terminal frame)
// are always retained.
const storedFrameCap = 1024

// subscriberBuffer is the live checkpoint buffer of one SSE subscriber. Its
// channel has room for the job's sticky frames on top of it.
const subscriberBuffer = 256

// emit delivers an SSE frame: sticky frames replay to late subscribers,
// as do checkpoint frames up to storedFrameCap; live frames go to current
// subscribers only. A slow subscriber drops checkpoint frames rather than
// blocking simulation, but never a sticky frame: checkpoints cannot take
// the room reserved for them.
func (j *job) emit(frame []byte, sticky bool) {
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

// gridOpen, gridComma and gridClose frame and separate a GridResult's
// cells in the bytes json.Marshal writes for it.
var (
	gridOpen  = []byte(`{"schema_version":` + strconv.Itoa(ResultSchemaVersion) + `,"cells":[`)
	gridComma = []byte{','}
	gridClose = []byte("]}")
)

// writeJobResult serves a finished job, with cache provenance in
// X-Sppd-Cache ("computed=1 dedup=0 memory=3 disk=0"). The body is the
// cells' cached bytes joined by gridComma inside gridOpen and gridClose:
// no encoding, no copy. Cached bytes are canonical, so this is exactly
// json.Marshal of the job's GridResult. The job must be done.
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	if j.err != nil {
		httpError(w, http.StatusInternalServerError, "%v", j.err)
		return
	}
	var counts [numSources]int
	for _, src := range j.sources {
		counts[src]++
	}
	var buf [64]byte
	prov := buf[:0]
	for src, name := range sourceNames {
		if src > 0 {
			prov = append(prov, ' ')
		}
		prov = append(append(prov, name...), '=')
		prov = strconv.AppendInt(prov, int64(counts[src]), 10)
	}
	size := len(gridOpen) + len(gridClose)
	for i, b := range j.results {
		if i > 0 {
			size++
		}
		size += len(b)
	}
	h := w.Header()
	h.Set("X-Sppd-Cache", string(prov))
	h.Set("X-Sppd-Job", j.id)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(size))
	w.Write(gridOpen)
	for i, b := range j.results {
		if i > 0 {
			w.Write(gridComma)
		}
		w.Write(b)
	}
	w.Write(gridClose)
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
	for {
		select {
		case frame := <-ch:
			w.Write(frame)
			flusher.Flush()
		case <-j.done:
			// Drain what the emitter enqueued before closing: the terminal
			// frame is on ch, not in the replay, when the job finished after
			// subscribe.
			for {
				select {
				case frame := <-ch:
					w.Write(frame)
				default:
					flusher.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
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
	b, src, _ := s.lookup(entry{key: key}, nil)
	if b == nil {
		httpError(w, http.StatusNotFound, "no cached cell %q (cells appear once a grid computes them)", key)
		return
	}
	w.Header().Set("X-Sppd-Cache", sourceNames[src])
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
	cell, _, _ := s.lookup(entry{key: key}, nil)
	if cell == nil {
		httpError(w, http.StatusNotFound, "no cached cell %q (replays derive from cached cells)", key)
		return
	}
	// A replay re-runs one full trial, so it computes on the pool like a
	// cell; concurrent requests for the same seed coalesce onto one run.
	b, src, err := s.lookup(entry{key: key, replay: true, seed: seed}, func() ([]byte, error) {
		var cr CellResult
		if err := json.Unmarshal(cell, &cr); err != nil {
			return nil, fmt.Errorf("corrupt cached cell: %v", err)
		}
		ens, err := cr.Spec.ensemble()
		if err != nil {
			return nil, err
		}
		rec, protoSeed, err := ens.TrialRecording(0, seed)
		if err != nil {
			return nil, badRequest{err}
		}
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			return nil, fmt.Errorf("encode recording: %v", err)
		}
		return json.Marshal(ReplayResult{
			SchemaVersion: ResultSchemaVersion,
			Hash:          key,
			Seed:          seed,
			ProtoSeed:     protoSeed,
			Recording:     buf.Bytes(),
		})
	})
	if err != nil {
		code := http.StatusInternalServerError
		if errors.As(err, new(badRequest)) {
			code = http.StatusBadRequest
		}
		httpError(w, code, "%v", err)
		return
	}
	w.Header().Set("X-Sppd-Cache", sourceNames[src])
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// badRequest marks a replay the request cannot have (a seed the cell does
// not replay): a 400, where any other failure is the server's 500.
type badRequest struct{ error }

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	entries := s.cache.len()
	inflight := len(s.flight)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"grids":             s.grids.Load(),
		"cells_computed":    s.counts[srcComputed].Load(),
		"dedup_hits":        s.counts[srcDedup].Load(),
		"memory_hits":       s.counts[srcMemory].Load(),
		"disk_hits":         s.counts[srcDisk].Load(),
		"replays":           s.replays[srcComputed].Load(),
		"disk_write_errors": s.diskErrs.Load(),
		"cache_entries":     entries,
		"in_flight":         inflight,
		"workers":           cap(s.sem),
		"hash_version":      HashVersion,
		"engine_epoch":      EngineEpoch,
		"schema_version":    ResultSchemaVersion,
	})
}
