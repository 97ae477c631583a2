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

// Registry is the document/variant metadata catalog. The QoS manager reads
// it directly, so a mutation is visible to the next negotiation as soon as
// the mutating call returns.
type Registry struct {
	mu   sync.RWMutex
	docs map[media.DocumentID]stored
	// gen is a monotonic mutation counter; every mutation stamps the
	// affected documents with a fresh value. The offer cache keys candidate
	// sets by it, so a document update (or a remove+re-add cycle) is always
	// visible as a generation change.
	gen uint64
}

// stored is one catalog entry: the document and the generation it was
// stored at, kept together so a Snapshot reads both with one lookup.
type stored struct {
	doc media.Document
	gen uint64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{docs: make(map[media.DocumentID]stored)}
}

// Add validates and stores a document, replacing any document with the same
// id.
func (r *Registry) Add(d media.Document) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	r.gen++
	r.docs[d.ID] = stored{doc: d, gen: r.gen}
	r.mu.Unlock()
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
	r.gen++
	r.mu.Unlock()
	return nil
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
	e, ok := r.docs[id]
	if !ok {
		return media.Document{}, 0, fmt.Errorf("%w: document %q", ErrNotFound, id)
	}
	return e.doc, e.gen, nil
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
	for id, e := range r.docs {
		if strings.Contains(strings.ToLower(e.doc.Title), q) {
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
	for _, e := range r.docs {
		for _, m := range e.doc.Monomedia {
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
		docs = append(docs, r.docs[id].doc)
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
	for _, d := range docs {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("registry %s: %w", path, err)
		}
	}
	r.mu.Lock()
	// A reload replaces the whole catalog: every surviving document gets a
	// fresh generation so cached candidate sets from the old catalog can
	// never be mistaken for current ones.
	r.gen++
	r.docs = make(map[media.DocumentID]stored, len(docs))
	for _, d := range docs {
		r.docs[d.ID] = stored{doc: d, gen: r.gen}
	}
	r.mu.Unlock()
	return nil
}
