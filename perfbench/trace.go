package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// layers are the repository modules spans are attributed to: a span's
// layer is its name up to the first dot.
var layers = []string{
	"lcls", "imgproc", "engine", "sketch", "parallel", "audit", "ckpt",
	"pca", "knn", "umap", "optics", "abod", "pipeline",
}

// tracer keeps the benchmark's spans in memory. Spans are recorded by
// the benchmark around its calls into each layer's public functions;
// the program itself is not instrumented. A nil *tracer times the same
// calls but records nothing, which is how untraced runs share code
// with traced ones.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []spanRecord
}

type spanRecord struct {
	Name    string `json:"name"`
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open span; end closes it and returns its duration.
type span struct {
	t      *tracer
	id     uint64
	trace  uint64
	parent uint64
	name   string
	start  time.Time
}

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// root opens a span that starts a new trace.
func (t *tracer) root(name string) span {
	s := span{t: t, name: name, start: time.Now()}
	if t != nil {
		s.id = t.newID()
		s.trace = s.id
	}
	return s
}

// child opens a span caused by s.
func (s span) child(name string) span {
	c := span{t: s.t, name: name, start: time.Now(), trace: s.trace, parent: s.id}
	if s.t != nil {
		c.id = s.t.newID()
	}
	return c
}

func (s span) end() time.Duration {
	now := time.Now()
	if t := s.t; t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, spanRecord{
			Name: s.name, TraceID: s.trace, SpanID: s.id, Parent: s.parent,
			StartNS: int64(s.start.Sub(t.epoch)), EndNS: int64(now.Sub(t.epoch)),
		})
		t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover. Only spans under roots accepted
// by keep count.
func (t *tracer) selfTimes(keep func(root string) bool) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]spanRecord{}
	byID := map[uint64]spanRecord{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
		byID[s.SpanID] = s
	}
	out := map[string]time.Duration{}
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range t.spans {
		if r, ok := byID[s.TraceID]; !ok || !keep(r.Name) {
			continue
		}
		var iv [][2]int64
		for _, c := range children[s.SpanID] {
			lo, hi := max(c.StartNS, s.StartNS), min(c.EndNS, s.EndNS)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[layerOf(s.Name)] += time.Duration(s.EndNS - s.StartNS - covered(iv))
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write saves the spans as JSON under .bench_build/traces and returns
// the path.
func (t *tracer) write(workload string, seed uint64, prov map[string]any) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{"provenance": prov, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
