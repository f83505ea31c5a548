package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"negmine/internal/artifact"
	"negmine/internal/serve"
)

// snapController wires the artifact store (-snapshot-dir) into the daemon's
// load path. Two modes:
//
//   - Producer (a rule source is configured): the first load tries the
//     store's newest usable generation — an mmap that skips the mine/parse
//     entirely — and falls back to the inner loader when the store is empty
//     or every generation is rejected. Every later load (reload, watch,
//     ingest refresh) runs the inner loader and, with -snapshot-save,
//     persists the fresh snapshot as a new generation.
//
//   - Replica (no source, only -snapshot-dir): every load serves the
//     newest usable generation; there is nothing to mine and nothing to
//     persist. Combined with -watch on the store manifest, the daemon
//     follows a producer writing into the same directory.
//
// A corrupted or torn generation is rejected by snapfmt validation at load;
// the controller walks back to the next-newest generation, so the daemon
// serves the last durable snapshot rather than failing or re-mining.
type snapController struct {
	store *artifact.FS
	inner serve.LoadFunc // nil in replica mode
	save  bool
	out   io.Writer

	mu     sync.Mutex
	booted bool
}

func (c *snapController) load(ctx context.Context) (*serve.Snapshot, error) {
	c.mu.Lock()
	first := !c.booted
	c.booted = true
	c.mu.Unlock()

	if c.inner == nil || first {
		snap, err := c.loadStore()
		switch {
		case err == nil:
			return snap, nil
		case c.inner == nil:
			return nil, fmt.Errorf("snapshot store %s: %w", c.store.Dir(), err)
		case !errors.Is(err, artifact.ErrEmpty):
			fmt.Fprintf(c.out, "negmined: snapshot store unusable (%v); rebuilding from source\n", err)
		}
	}
	snap, err := c.inner(ctx)
	if err != nil {
		return nil, err
	}
	if c.save {
		c.persist(snap)
	}
	return snap, nil
}

// loadStore opens the newest generation that validates, walking backwards
// past corrupted ones.
func (c *snapController) loadStore() (*serve.Snapshot, error) {
	gens, err := c.store.List()
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, artifact.ErrEmpty
	}
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i].Generation
		path, _, err := c.store.Localize(gen)
		if err == nil {
			var snap *serve.Snapshot
			if snap, err = serve.OpenSnapshotFile(path, 0); err == nil {
				return snap, nil
			}
		}
		if firstErr == nil {
			firstErr = err
		}
		fmt.Fprintf(c.out, "negmined: snapshot generation %d rejected: %v\n", gen, err)
	}
	return nil, firstErr
}

// persist stores snap as a new generation. Persistence is auxiliary: on
// failure the fresh snapshot still serves (with generation 0), and the
// store keeps its previous newest generation for the next restart.
func (c *snapController) persist(snap *serve.Snapshot) {
	info, err := c.store.Put(snap.SourceKind(), func(gen uint64, w io.Writer) error {
		return serve.EncodeSnapshot(w, snap, gen)
	})
	if err != nil {
		fmt.Fprintf(c.out, "negmined: snapshot persist failed (still serving the fresh snapshot): %v\n", err)
		return
	}
	// Stamp before the server publishes the snapshot (load has not returned
	// yet), so /metrics reports the generation queries are served from.
	snap.SetProvenance(info.Generation, snap.SourceKind())
	fmt.Fprintf(c.out, "negmined: snapshot generation %d persisted (%d bytes)\n", info.Generation, info.Size)
}
