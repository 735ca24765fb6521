package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/ingest"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/store"
)

// plainMechanisms builds the suite mechanism by name, unwrapped.
func plainMechanisms(name string, p core.Params) (core.Mechanism, error) {
	return experiments.ByName(p, name)
}

// mechanisms returns the store's mechanism factory
// (store.Config.NewMechanism), built as cmd/itreed builds it: the suite
// mechanism wrapped in experiments.Instrumented, which counts and times
// evaluations in reg. An incremental campaign gets the bare mechanism,
// because incremental.ForMechanism selects the engine by the concrete
// type and the wrapper would switch the engine off.
func mechanisms(reg *obs.Registry, incremental bool) func(string, core.Params) (core.Mechanism, error) {
	if incremental {
		return plainMechanisms
	}
	return func(name string, p core.Params) (core.Mechanism, error) {
		m, err := plainMechanisms(name, p)
		if err != nil {
			return nil, err
		}
		return experiments.Instrumented(m, reg), nil
	}
}

// instance is one running store behind a loopback HTTP listener, set up
// as cmd/itreed sets up its store: the exported defaults for shards,
// checkpointing, and group commit, the binary format, batch-wait 0, the
// store's Run loop, and a metrics registry. The journal syncs on every
// append.
type instance struct {
	st       *store.Store
	reg      *obs.Registry
	campaign *store.Campaign
	hs       *http.Server
	base     string // http://127.0.0.1:port/v1/campaigns/<id>/
	stopRun  context.CancelFunc
	runDone  chan struct{}
	served   chan error
}

func storeConfig(dir string, reg *obs.Registry, incremental bool) store.Config {
	return store.Config{
		DataDir:            dir,
		Format:             journal.ModeBinary.String(),
		Shards:             store.DefaultShards,
		CheckpointInterval: store.DefaultCheckpointEvery,
		CheckpointBytes:    store.DefaultCheckpointBytes,
		Sync:               journal.SyncAlways,
		BatchMax:           ingest.DefaultBatchMax,
		BatchWait:          0,
		QueueDepth:         ingest.DefaultQueueDepth,
		Metrics:            reg,
		NewMechanism:       mechanisms(reg, incremental),
		DefaultParams:      core.DefaultParams(),
	}
}

// openInstance opens (recovering) the store at dir and starts serving it.
// incremental selects the factory for a campaign served by the
// incremental engine.
func openInstance(dir string, incremental bool) (*instance, error) {
	reg := obs.NewRegistry()
	st, err := store.Open(storeConfig(dir, reg, incremental))
	if err != nil {
		return nil, err
	}
	c, ok := st.Get(campaignID)
	if !ok {
		st.Close()
		return nil, fmt.Errorf("campaign %q missing after open", campaignID)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	root := http.NewServeMux()
	root.Handle("/", st.Handler())
	root.Handle("GET /metrics", reg.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	in := &instance{
		st:       st,
		reg:      reg,
		campaign: c,
		hs:       &http.Server{Handler: root, ReadHeaderTimeout: 5 * time.Second},
		base:     "http://" + ln.Addr().String() + "/v1/campaigns/" + campaignID + "/",
		stopRun:  cancel,
		runDone:  make(chan struct{}),
		served:   make(chan error, 1),
	}
	go func() {
		defer close(in.runDone)
		st.Run(ctx)
	}()
	go func() {
		err := in.hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		in.served <- err
	}()
	return in, nil
}

// get fetches path (relative to the campaign base) and returns the body
// of a 200 reply.
func (in *instance) get(path string) ([]byte, error) {
	resp, err := http.Get(in.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

// close drains HTTP, stops the Run loop, and closes the store, which
// checkpoints every campaign with pending events.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; err == nil {
		err = serr
	}
	http.DefaultClient.CloseIdleConnections()
	in.stopRun()
	<-in.runDone
	if cerr := in.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// openServed opens the store at dir and waits until it has served its
// first request, a read of participant first. It returns the process
// CPU time and the wall time from the call to that reply.
func openServed(dir string, incremental bool, first string) (in *instance, cpu, wall time.Duration, err error) {
	cpu0, start := processCPU(), time.Now()
	in, err = openInstance(dir, incremental)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err := in.get("participants/" + first); err != nil {
		in.close()
		return nil, 0, 0, err
	}
	return in, processCPU() - cpu0, time.Since(start), nil
}
