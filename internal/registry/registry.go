// Package registry is the reproduction's stand-in for the distributed
// multimedia database of the news-on-demand prototype ([Vit 95], University
// of Alberta). The QoS negotiation procedure reads variant metadata from it:
// which variants exist for each monomedia of a document, their formats, the
// QoS they deliver, their block-length statistics (consumed by the Section 6
// mapping) and their location (which server stores the file).
//
// The store is in-memory, safe for concurrent use, and persists to JSON so
// the daemon and the experiment harness can share catalogs.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"qosneg/internal/fsutil"
	"qosneg/internal/media"
)

// ErrNotFound is returned for lookups of unknown documents or components.
var ErrNotFound = errors.New("registry: not found")

// Registry is the document/variant metadata catalog.
type Registry struct {
	mu   sync.RWMutex
	docs map[media.DocumentID]media.Document
	// gen is a monotonic mutation counter; every mutation stamps the
	// affected documents' entries in gens with a fresh value. The offer
	// cache keys candidate sets by it, so a document update (or a
	// remove+re-add cycle) is always visible as a generation change.
	gen  uint64
	gens map[media.DocumentID]uint64
	// replicaHook, when installed, is notified after every catalog
	// mutation, outside the lock; see SetReplicaHook.
	replicaHook func(id media.DocumentID, full bool)
}

// SetReplicaHook installs a callback fired after every mutation of the
// catalog: Add and Remove report the affected document id, LoadFile reports
// a full replacement (id empty, full true). The sharded fleet uses it to
// publish catalog changes on its update bus so per-shard replicas re-sync
// before answering. The hook runs outside the registry lock, after the
// mutation is visible; it must be fast and must not mutate this registry.
func (r *Registry) SetReplicaHook(fn func(id media.DocumentID, full bool)) {
	r.mu.Lock()
	r.replicaHook = fn
	r.mu.Unlock()
}

// notifyReplica fires the replica hook, if any.
func (r *Registry) notifyReplica(id media.DocumentID, full bool) {
	r.mu.RLock()
	fn := r.replicaHook
	r.mu.RUnlock()
	if fn != nil {
		fn(id, full)
	}
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		docs: make(map[media.DocumentID]media.Document),
		gens: make(map[media.DocumentID]uint64),
	}
}

// Add validates and stores a document, replacing any document with the same
// id.
func (r *Registry) Add(d media.Document) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	r.docs[d.ID] = d
	r.gen++
	r.gens[d.ID] = r.gen
	r.mu.Unlock()
	r.notifyReplica(d.ID, false)
	return nil
}

// Remove deletes the document with the given id.
func (r *Registry) Remove(id media.DocumentID) error {
	r.mu.Lock()
	if _, ok := r.docs[id]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: document %q", ErrNotFound, id)
	}
	delete(r.docs, id)
	delete(r.gens, id)
	r.gen++
	r.mu.Unlock()
	r.notifyReplica(id, false)
	return nil
}

// ApplyReplica installs a (document, generation) snapshot taken from a
// primary registry into this replica, preserving the primary's generation
// stamp — so a candidate set memoized against the replica carries exactly
// the generation the primary would report, and the offer cache's coherence
// argument holds across shards. The document is assumed already validated
// by the primary's Add; no hook fires (replicas are leaves, not sources).
func (r *Registry) ApplyReplica(d media.Document, gen uint64) {
	r.mu.Lock()
	r.docs[d.ID] = d
	r.gens[d.ID] = gen
	if gen > r.gen {
		r.gen = gen
	}
	r.mu.Unlock()
}

// RemoveReplica deletes a document from a replica without error when it is
// absent and without firing the replica hook; the replication path uses it
// to apply primary removals idempotently.
func (r *Registry) RemoveReplica(id media.DocumentID) {
	r.mu.Lock()
	delete(r.docs, id)
	delete(r.gens, id)
	r.gen++
	r.mu.Unlock()
}

// Document returns the document with the given id.
func (r *Registry) Document(id media.DocumentID) (media.Document, error) {
	d, _, err := r.Snapshot(id)
	return d, err
}

// Snapshot returns the document together with its current generation, read
// atomically under one lock acquisition. The generation changes whenever the
// document is replaced (Add), removed and re-added, or reloaded from disk —
// so a candidate set computed from this snapshot is valid exactly as long as
// a later Snapshot returns the same generation.
func (r *Registry) Snapshot(id media.DocumentID) (media.Document, uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.docs[id]
	if !ok {
		return media.Document{}, 0, fmt.Errorf("%w: document %q", ErrNotFound, id)
	}
	return d, r.gens[id], nil
}

// List returns every stored document id in sorted order.
func (r *Registry) List() []media.DocumentID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]media.DocumentID, 0, len(r.docs))
	for id := range r.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Len returns the number of stored documents.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.docs)
}

// SearchTitle returns the ids of documents whose title contains the query,
// case-insensitively, in sorted order. The news-on-demand user interface
// uses it to populate the article list.
func (r *Registry) SearchTitle(query string) []media.DocumentID {
	q := strings.ToLower(query)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var ids []media.DocumentID
	for id, d := range r.docs {
		if strings.Contains(strings.ToLower(d.Title), q) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Variants returns the available variants of one monomedia component.
func (r *Registry) Variants(doc media.DocumentID, mono media.MonomediaID) ([]media.Variant, error) {
	d, err := r.Document(doc)
	if err != nil {
		return nil, err
	}
	m, ok := d.Component(mono)
	if !ok {
		return nil, fmt.Errorf("%w: monomedia %q of document %q", ErrNotFound, mono, doc)
	}
	out := make([]media.Variant, len(m.Variants))
	copy(out, m.Variants)
	return out, nil
}

// Servers returns the sorted set of server ids referenced by any variant.
func (r *Registry) Servers() []media.ServerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	set := make(map[media.ServerID]bool)
	for _, d := range r.docs {
		for _, m := range d.Monomedia {
			for _, v := range m.Variants {
				set[v.Server] = true
			}
		}
	}
	out := make([]media.ServerID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SaveFile writes the catalog to path as JSON.
func (r *Registry) SaveFile(path string) error {
	r.mu.RLock()
	docs := make([]media.Document, 0, len(r.docs))
	for _, id := range r.listLocked() {
		docs = append(docs, r.docs[id])
	}
	r.mu.RUnlock()
	data, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, data, 0o644)
}

func (r *Registry) listLocked() []media.DocumentID {
	ids := make([]media.DocumentID, 0, len(r.docs))
	for id := range r.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// LoadFile reads a catalog written by SaveFile, replacing the registry's
// contents.
func (r *Registry) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var docs []media.Document
	if err := json.Unmarshal(data, &docs); err != nil {
		return fmt.Errorf("registry %s: %w", path, err)
	}
	m := make(map[media.DocumentID]media.Document, len(docs))
	for _, d := range docs {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("registry %s: %w", path, err)
		}
		m[d.ID] = d
	}
	r.mu.Lock()
	r.docs = m
	// A reload replaces the whole catalog: every surviving document gets a
	// fresh generation so cached candidate sets from the old catalog can
	// never be mistaken for current ones.
	r.gens = make(map[media.DocumentID]uint64, len(m))
	r.gen++
	for id := range m {
		r.gens[id] = r.gen
	}
	r.mu.Unlock()
	r.notifyReplica("", true)
	return nil
}
