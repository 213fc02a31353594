package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/fleet"
	"smarteryou/internal/sensing"
)

// mimicFidelity is the attacker's imitation fidelity: Section V-G's
// attacker who studied the victim on video (the fleet scenarios' default).
const mimicFidelity = 0.9

// trainMode is the paper's headline configuration (Table VII): phone and
// watch features, one model per coarse context.
var trainMode = core.Mode{Combined: true, UseContext: true}

// trainPerClass bounds the windows per class each model trains on, as the
// fleet harness does, so training cost stays flat as populations grow.
const trainPerClass = 40

// person is one synthetic user and the feature windows the benchmark
// presents on their behalf.
type person struct {
	user *sensing.User
	// enroll is the enrollment upload: one session per coarse context.
	enroll []features.WindowSample
	// genuine holds later windows of the owner; mimic holds windows of
	// other people imitating this one. Both are empty when the workload
	// generates its windows as it runs.
	genuine []features.WindowSample
	mimic   []features.WindowSample
}

// population is a workload's synthetic cohort plus the context detector
// trained on its enrollment windows.
type population struct {
	people   []person
	detector *ctxdetect.Detector
}

// synthOptions sizes a population.
type synthOptions struct {
	people int
	// enrollSeconds is the length of each per-context enrollment session;
	// a 6 s window cadence gives seconds/6 windows per context.
	enrollSeconds float64
	// poolSeconds, when positive, records for every person a genuine
	// session of this length per context, and as many 6 s mimicry
	// sessions per context, each by another attacker.
	poolSeconds float64
}

// synthesize derives a population from seed. The work is split over
// GOMAXPROCS goroutines; each person's windows depend only on the seed and
// the person's index, so the result does not depend on the split.
func synthesize(seed int64, opt synthOptions) (*population, error) {
	pop, err := sensing.NewPopulation(opt.people, seed)
	if err != nil {
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	people := make([]person, opt.people)
	errs := make([]error, opt.people)
	workers := min(runtime.GOMAXPROCS(0), opt.people)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < opt.people; i += workers {
				people[i], errs[i] = synthesizePerson(pop.Users, i, seed, opt)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var corpus []features.WindowSample
	for _, p := range people {
		corpus = append(corpus, p.enroll...)
	}
	det, err := ctxdetect.Train(ctxdetect.FromSamples(corpus), ctxdetect.Config{Seed: seed + 13, Trees: 10})
	if err != nil {
		return nil, fmt.Errorf("synthesize: context detector: %w", err)
	}
	return &population{people: people, detector: det}, nil
}

func synthesizePerson(users []*sensing.User, i int, seed int64, opt synthOptions) (person, error) {
	u := users[i]
	p := person{user: u}
	var err error
	p.enroll, err = features.Collect(u, features.CollectOptions{
		WindowSeconds: 6, SessionSeconds: opt.enrollSeconds, Sessions: 1,
		Seed: seed*1_000_003 + int64(i)*101,
	})
	if err != nil {
		return person{}, fmt.Errorf("synthesize enroll %s: %w", u.ID, err)
	}
	if opt.poolSeconds <= 0 {
		return p, nil
	}
	p.genuine, err = features.Collect(u, features.CollectOptions{
		WindowSeconds: 6, SessionSeconds: opt.poolSeconds, Sessions: 1,
		Seed: seed*1_000_003 + 5000 + int64(i)*103,
	})
	if err != nil {
		return person{}, fmt.Errorf("synthesize genuine %s: %w", u.ID, err)
	}
	// The mimic pool mixes attackers: each contributes one 6 s session
	// per context, so a victim's pool does not hinge on one imitator.
	rng := rand.New(rand.NewSource(seed*1_000_003 + 9000 + int64(i)))
	for a := 0; a < int(opt.poolSeconds/6); a++ {
		attacker := users[(i+1+rng.Intn(len(users)-1))%len(users)]
		ws, err := features.Collect(attacker, features.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 6, Sessions: 1,
			Seed:    seed*1_000_003 + 9000 + int64(i)*107 + int64(a)*7,
			MimicOf: &u.Params, MimicFidelity: mimicFidelity,
		})
		if err != nil {
			return person{}, fmt.Errorf("synthesize mimic %s: %w", u.ID, err)
		}
		p.mimic = append(p.mimic, ws...)
	}
	return p, nil
}

// trainLocal fits person i's bundle in process, against every other
// person's enrollment windows.
func (pop *population) trainLocal(i int, seed int64) (*core.ModelBundle, error) {
	var impostor []features.WindowSample
	for j, p := range pop.people {
		if j != i {
			impostor = append(impostor, p.enroll...)
		}
	}
	return core.Train(pop.people[i].enroll, impostor, core.TrainConfig{
		Mode: trainMode, MaxPerClass: trainPerClass, Seed: seed + int64(i),
	})
}

// identity is a user the benchmark speaks for on the wire: a cohort
// person, or a persona clone of one (fleet.NewPersona) for populations
// larger than the synthesized cohort.
type identity struct {
	id      string
	base    int // index of the cohort person the identity is cloned from
	persona *fleet.Persona
}

// present returns the windows as the identity's devices would report them.
func (id identity) present(in []features.WindowSample) []features.WindowSample {
	if id.persona == nil {
		out := append([]features.WindowSample(nil), in...)
		for k := range out {
			out[k].UserID = id.id
		}
		return out
	}
	return id.persona.ApplyAll(id.id, in)
}

// presentOne is present for one window.
func (id identity) presentOne(w features.WindowSample) features.WindowSample {
	if id.persona == nil {
		w.UserID = id.id
		return w
	}
	return id.persona.Apply(id.id, w)
}

// cohortIdentities names the cohort people themselves.
func cohortIdentities(workload string, n int) []identity {
	out := make([]identity, n)
	for i := range out {
		out[i] = identity{id: fmt.Sprintf("%s-%d", workload, i), base: i}
	}
	return out
}

// cloneIdentity returns identity k (k at or beyond the cohort): a persona
// clone of cohort person k mod cohort.
func cloneIdentity(workload string, k, cohort int) identity {
	p := fleet.NewPersona(k)
	return identity{id: fmt.Sprintf("%s-%d", workload, k), base: k % cohort, persona: &p}
}

// windowPick chooses a genuine or mimic window of person base for an
// authenticate request; mimicShare of picks are mimicry.
func (pop *population) windowPick(rng *rand.Rand, base int, mimicShare float64) (features.WindowSample, bool) {
	p := pop.people[base]
	if rng.Float64() < mimicShare {
		return p.mimic[rng.Intn(len(p.mimic))], true
	}
	return p.genuine[rng.Intn(len(p.genuine))], false
}
