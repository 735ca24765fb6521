package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"

	"incentivetree/internal/core"
	"incentivetree/internal/ingest"
	"incentivetree/internal/journal"
)

// fsNames maps statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printShape records the machine shape and the run's configuration.
func (r *runner) printShape() error {
	mech, err := plainMechanisms(r.o.w.mechanism, core.DefaultParams())
	if err != nil {
		return err
	}
	fs := fsType(r.dir)
	shape := map[string]any{
		"workload":    r.o.w.name,
		"seed":        r.o.seed,
		"seconds":     r.o.seconds.Seconds(),
		"trace":       r.o.trace,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"data_fs":     fs,
		"sync":        string(journal.SyncAlways),
		"mechanism":   mech.Name(),
		"incremental": r.o.w.incremental,
		"n":           r.o.w.n,
		"max_depth":   r.pop.maxDepth(),
		"batch_max":   ingest.DefaultBatchMax,
		"clients":     2,
		"loop":        "closed",
	}
	data, err := json.Marshal(shape)
	if err != nil {
		return err
	}
	r.logf("shape %s", data)
	if fs == "tmpfs" {
		r.logf("warning: the data directory is on tmpfs, so fsync costs nothing; latencies are not a disk's")
	}
	return nil
}
