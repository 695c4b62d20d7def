package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/mapfile"
	"repro/internal/rdf"
	"repro/internal/workload"
)

// sizes fixes every input size of the workloads. fullSizes is what the
// benchmark runs; the tests use smaller ones.
type sizes struct {
	// Film system (peer-read, durable-write).
	Films, Actors int
	SameAs        float64
	// LOD cycle (federated).
	Peers, Facts, Entities int
	// durable-write's writer rate in commits per second, and the cast
	// size of each written film. Every checkpoint snapshots the whole
	// written peer, so the rate sets how many of those stalls fall in a
	// run: at 250 commits/s five fell in 15 s and moved the reader's qps
	// from window to window by up to a third.
	WriteRate float64
	WriteCast int
	// Setups is the least number of set-ups of a run, and SetupBudget the
	// seconds of set-up after which no more are started; setup_s is the
	// median.
	Setups      int
	SetupBudget float64
	// Warmup runs the workload, untimed, before measuring.
	Warmup float64 // seconds
}

var fullSizes = sizes{
	Films: 20000, Actors: 3, SameAs: 0.5,
	Peers: 6, Facts: 4000, Entities: 2000,
	WriteRate: 100, WriteCast: 6,
	Setups: 3, SetupBudget: 4, Warmup: 3,
}

// Zipf exponent of the key popularity in every read mix.
const zipfS = 1.1

// genFilm writes the film system (Figure 1 scaled) to dir.
func genFilm(dir string, seed int64, sz sizes) (string, error) {
	sys := workload.ScaledFilmSystem(workload.FilmConfig{
		Films: sz.Films, ActorsPerFilm: sz.Actors, SameAsFraction: sz.SameAs, Seed: seed,
	})
	return mapfile.Save(sys, workload.FilmNamespaces(), dir)
}

// genLOD writes a cycle of peers with rename mappings and no equivalences,
// so every rewriting is complete.
func genLOD(dir string, seed int64, sz sizes) (string, error) {
	sys := workload.LODSystem(workload.LODConfig{
		Peers: sz.Peers, Topology: workload.Cycle, Shape: workload.Rename,
		FactsPerPeer: sz.Facts, EntitiesPerPeer: sz.Entities, EquivFraction: 0, Seed: seed,
	})
	ns := rdf.NewNamespaces()
	for i := 0; i < sz.Peers; i++ {
		ns.Bind(fmt.Sprintf("p%d", i), workload.LODNamespace(i))
	}
	return mapfile.Save(sys, ns, dir)
}

// keys draws seeded Zipf-distributed keys: rank r of the Zipf draw maps to
// key perm[r], so the popular keys are spread over the key space.
type keys struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newKeys(seed int64, n int) *keys {
	rng := rand.New(rand.NewSource(seed))
	return &keys{
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)),
		perm: rng.Perm(n),
	}
}

func (k *keys) next() int { return k.perm[k.zipf.Uint64()] }

// clientSeed derives an independent stream per client from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client)*7919 + 1 }

// spansFile is where a traced run writes its spans; it outlives the run's
// input directory.
func spansFile(cfg config, workload string) string {
	return filepath.Join(cfg.Work, fmt.Sprintf("spans-%s-%d.jsonl", workload, cfg.Seed))
}

// workDir makes a fresh scratch directory under root for a run's inputs
// and stores; the run removes it when it ends.
func workDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
