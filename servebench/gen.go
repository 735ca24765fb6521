package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"incentivetree/internal/core"
	"incentivetree/internal/journal"
	"incentivetree/internal/store"
)

// campaignID is the campaign every workload serves, next to the store's
// empty default campaign.
const campaignID = "bench"

// population is the generated seed state: participant i is named
// names[i], was sponsored by parent[i] (-1 = organic join), and holds
// seed contribution contrib[i]. Participants are listed in join order.
type population struct {
	names   []string
	parent  []int32
	contrib []float64
}

// newRand derives an independent PCG stream from the workload seed.
// Streams: 0 = seed population, 1+c = client c's operation stream.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5eed0000+stream))
}

// dyadic draws an amount k/den with k uniform in [1, max] and den a
// power of two: such amounts keep every contribution sum exact in
// float64, so the ledger check can compare with ==.
func dyadic(rng *rand.Rand, max int, den float64) float64 {
	return float64(1+rng.IntN(max)) / den
}

// generate builds the seed population in O(n). Preferential attachment
// samples a sponsor from a repeat list holding every participant once
// plus once per recruit, so a sponsor is drawn with probability
// proportional to 1 + its recruit count. Recency-biased attachment
// instead draws, with probability 1/2, one of the last 32 joiners, which
// grows long sponsor chains; otherwise it picks uniformly.
func generate(w workload, seed uint64) *population {
	rng := newRand(seed, 0)
	n := w.n
	p := &population{
		names:   make([]string, n),
		parent:  make([]int32, n),
		contrib: make([]float64, n),
	}
	repeat := make([]int32, 0, 2*n)
	for i := 0; i < n; i++ {
		p.names[i] = "p" + strconv.Itoa(i)
		p.contrib[i] = dyadic(rng, 40, 4)
		sponsor := int32(-1)
		switch {
		case i == 0 || rng.IntN(100) == 0:
			// organic join: about 1% of participants join without a sponsor
		case w.recency && rng.IntN(2) == 0:
			sponsor = int32(i - 1 - rng.IntN(min(i, 32)))
		case w.recency:
			sponsor = int32(rng.IntN(i))
		default:
			sponsor = repeat[rng.IntN(len(repeat))]
		}
		p.parent[i] = sponsor
		repeat = append(repeat, int32(i))
		if sponsor >= 0 {
			repeat = append(repeat, sponsor)
		}
	}
	return p
}

// maxDepth reports the depth of the deepest seed participant (organic
// joins are depth 1).
func (p *population) maxDepth() int {
	depth := make([]int32, len(p.parent))
	deepest := int32(0)
	for i, par := range p.parent {
		depth[i] = 1
		if par >= 0 {
			depth[i] = depth[par] + 1
		}
		deepest = max(deepest, depth[i])
	}
	return int(deepest)
}

// seedJournal encodes the population as a binary journal: one join and
// one contribute record per participant, in join order, sequence
// numbers from 1.
func (p *population) seedJournal() ([]byte, error) {
	buf := make([]byte, 0, 40*2*len(p.names))
	seq := uint64(1)
	for i, name := range p.names {
		sponsor := ""
		if par := p.parent[i]; par >= 0 {
			sponsor = p.names[par]
		}
		var err error
		buf, err = journal.AppendBinaryRecord(buf, journal.Event{Seq: seq, Kind: journal.KindJoin, Name: name, Sponsor: sponsor})
		if err != nil {
			return nil, err
		}
		buf, err = journal.AppendBinaryRecord(buf, journal.Event{Seq: seq + 1, Kind: journal.KindContribute, Name: name, Amount: p.contrib[i]})
		if err != nil {
			return nil, err
		}
		seq += 2
	}
	return buf, nil
}

// metaJSON encodes a campaign's meta.json. CreatedUnix is fixed so the
// same seed gives byte-identical files.
func metaJSON(id, mechanism string, incremental bool) ([]byte, error) {
	data, err := json.MarshalIndent(store.Meta{
		ID:          id,
		Mechanism:   mechanism,
		Params:      core.DefaultParams(),
		Incremental: incremental,
		CreatedUnix: 1,
	}, "", "  ")
	return append(data, '\n'), err
}

// seedFiles holds the encoded seed data directory: the workload's
// campaign and the store's empty default campaign, which every data
// directory itreed has opened once already holds.
type seedFiles struct {
	meta, defaultMeta, journal []byte
}

func encodeSeed(w workload, p *population) (seedFiles, error) {
	meta, err := metaJSON(campaignID, w.mechanism, w.incremental)
	if err != nil {
		return seedFiles{}, err
	}
	defaultMeta, err := metaJSON(store.DefaultID, "tdrm", false)
	if err != nil {
		return seedFiles{}, err
	}
	jr, err := p.seedJournal()
	if err != nil {
		return seedFiles{}, err
	}
	return seedFiles{meta: meta, defaultMeta: defaultMeta, journal: jr}, nil
}

// install writes a fresh data directory at dir in the store's on-disk
// layout (<dir>/campaigns/<id>/{meta.json,journal.log}), replacing
// whatever was there. Everything is synced, so no write-back of the
// seed overlaps the timed open that follows.
func (f seedFiles) install(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	root := filepath.Join(dir, "campaigns")
	files := []struct {
		id, name string
		data     []byte
	}{
		{campaignID, "meta.json", f.meta},
		{campaignID, "journal.log", f.journal},
		{store.DefaultID, "meta.json", f.defaultMeta},
	}
	for _, file := range files {
		cdir := filepath.Join(root, file.id)
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(cdir, file.name), file.data); err != nil {
			return err
		}
	}
	for _, d := range []string{filepath.Join(root, campaignID), filepath.Join(root, store.DefaultID), root, dir, filepath.Dir(dir)} {
		if err := syncDir(d); err != nil {
			return err
		}
	}
	return nil
}

func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", path, err)
	}
	return f.Close()
}

func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
