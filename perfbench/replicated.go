package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smarteryou/internal/cluster"
	"smarteryou/internal/features"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// Replicated-write sizing: a small population written to at a fixed
// rate by one open-loop generator; two fifths of the ops are
// authenticate batches, so the accept rates are measured on the
// cluster's replicated models too.
const (
	replPeople     = 256
	replEnrollSecs = 24
	replPoolSecs   = 12
	replNodes      = 2
	replShards     = 8
	replRate       = 200
	replAuthShare  = 0.4
	replBatch      = 32
	replMimicShare = 1.0 / 3
	// replTail is the gated tail.
	replTail = 0.95
	// replConverge bounds the wait for the peer to catch up after
	// staging and after the run.
	replConverge = 10 * time.Second
)

type replNode struct {
	store *store.Store
	node  *cluster.Node
	srv   *transport.Server
}

type replState struct {
	pop    *population
	ids    []identity
	dir    string
	nodes  []*replNode
	smap   *cluster.ShardMap
	client *transport.Client
	// windows holds each user's window count after its last acknowledged
	// write; unsure marks users whose write failed.
	windows map[string]int
	unsure  map[string]bool
}

func setupReplicated(cfg config) (*replState, error) {
	pop, err := synthesize(cfg.seed, synthOptions{people: replPeople, enrollSeconds: replEnrollSecs, poolSeconds: replPoolSecs})
	if err != nil {
		return nil, err
	}
	st := &replState{pop: pop, ids: cohortIdentities("repl", replPeople), windows: map[string]int{}, unsure: map[string]bool{}}
	if st.dir, err = roundDir(cfg, "repl"); err != nil {
		return nil, err
	}
	fail := func(err error) (*replState, error) {
		st.close()
		return nil, err
	}
	if err := st.startCluster(); err != nil {
		return fail(err)
	}
	st.client, err = transport.NewClient(transport.ClientConfig{
		Addr: st.smap.Nodes[0].ClientAddr, Key: benchKey, Timeout: rpcTimeout, RouteByShard: true,
	})
	if err != nil {
		return fail(err)
	}
	for _, id := range st.ids {
		ws := id.present(pop.people[id.base].enroll)
		if _, err := st.client.Enroll(id.id, ws); err != nil {
			return fail(fmt.Errorf("stage enroll %s: %w", id.id, err))
		}
		st.windows[anon(id.id)] = len(ws)
	}
	// Each owner trains against the population its node holds, so the
	// other node's enrollments must have arrived first.
	if err := st.awaitConverged(); err != nil {
		return fail(err)
	}
	for _, id := range st.ids {
		if _, err := st.client.Train(id.id, transport.TrainParams{Mode: trainMode, MaxPerClass: trainPerClass, Seed: cfg.seed + int64(id.base)}); err != nil {
			return fail(fmt.Errorf("stage train %s: %w", id.id, err))
		}
	}
	if err := st.awaitConverged(); err != nil {
		return fail(err)
	}
	// Let the compactions the staging writes set off finish now, not
	// inside the measured phase.
	for _, n := range st.nodes {
		if err := n.store.Snapshot(); err != nil {
			return fail(err)
		}
	}
	return st, nil
}

// startCluster brings up the nodes on loopback listeners, every shard
// owned by one node and mirrored on the other.
func (st *replState) startCluster() error {
	infos := make([]cluster.NodeInfo, replNodes)
	lns := make([][3]net.Listener, replNodes)
	closeLns := func() {
		for _, l := range lns {
			for _, ln := range l {
				if ln != nil {
					ln.Close()
				}
			}
		}
	}
	for i := range infos {
		for k := range lns[i] {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeLns()
				return err
			}
			lns[i][k] = ln
		}
		infos[i] = cluster.NodeInfo{
			ClientAddr: lns[i][0].Addr().String(),
			ReplAddr:   lns[i][1].Addr().String(),
			CtrlAddr:   lns[i][2].Addr().String(),
		}
	}
	var err error
	if st.smap, err = cluster.BalancedMap(infos, replShards); err != nil {
		closeLns()
		return err
	}
	for i := range infos {
		// The stores skip fsync: on a shared virtual disk the flush
		// latency drifts several-fold within minutes and would decide
		// every timing here. What is measured is routing, transport, the
		// log append and mesh replication competing for the processors.
		s, err := store.Open(filepath.Join(st.dir, fmt.Sprintf("node-%d", i)), store.Options{Shards: replShards, NoSync: true})
		if err != nil {
			closeLns()
			return err
		}
		n := &replNode{store: s}
		st.nodes = append(st.nodes, n)
		n.node, err = cluster.NewNode(cluster.NodeConfig{
			Self: infos[i], Map: st.smap, Store: s, Key: benchKey,
			SealTimeout: 15 * time.Second, ReplListener: lns[i][1], CtrlListener: lns[i][2],
		})
		if err != nil {
			closeLns()
			return err
		}
		n.srv, err = transport.NewServer(transport.ServerConfig{Key: benchKey, Detector: st.pop.detector, Store: s, Router: n.node})
		if err != nil {
			closeLns()
			return err
		}
		srv := n.srv
		if err := n.node.Start(cluster.Hooks{OnApply: srv.ApplyReplicatedOp, OnSnapshot: func(int) { srv.ReloadFromStore() }}); err != nil {
			closeLns()
			return err
		}
		if _, err := srv.StartListener(lns[i][0]); err != nil {
			lns[i][0].Close()
			return err
		}
	}
	return nil
}

// owner returns the node owning the user's shard, and the shard.
func (st *replState) owner(id string) (node, shard int) {
	shard = store.ShardIndex(anon(id), replShards)
	return int(st.smap.Owner[shard]), shard
}

// awaitConverged waits until every shard's copy on the other node has
// reached the owner's last sequence number.
func (st *replState) awaitConverged() error {
	deadline := time.Now().Add(replConverge)
	for {
		lag := 0
		seqs := make([][]uint64, len(st.nodes))
		for i, n := range st.nodes {
			seqs[i] = n.store.ShardLastSeqs()
		}
		for shard, o := range st.smap.Owner {
			for i := range st.nodes {
				if i != int(o) && seqs[i][shard] < seqs[o][shard] {
					lag++
				}
			}
		}
		if lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicated-write: %d shard copies still behind their owner after %v", lag, replConverge)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (st *replState) close() {
	if st.client != nil {
		_ = st.client.Close()
	}
	for _, n := range st.nodes {
		if n.srv != nil {
			_ = n.srv.Close() // teardown of a finished run
		}
		if n.node != nil {
			_ = n.node.Close()
		}
	}
	for _, n := range st.nodes {
		_ = n.store.Close()
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
}

type replKind int

const (
	replAppend  replKind = iota // enroll: append windows
	replReplace                 // re-enroll: replace the user's windows
	replAuth                    // authenticate a batch on node 0
)

type replOp struct {
	kind  replKind
	user  int
	wins  []features.WindowSample
	mimic []bool
}

func (st *replState) schedule(rng *rand.Rand, span time.Duration) ([]time.Duration, []replOp) {
	dues := poissonDues(rng, replRate, 0, span)
	ops := make([]replOp, len(dues))
	for i := range ops {
		u := rng.Intn(len(st.ids))
		id, p := st.ids[u], st.pop.people[st.ids[u].base]
		switch x := rng.Float64(); {
		case x < replAuthShare:
			op := replOp{kind: replAuth, user: u}
			for range replBatch {
				w, mimic := st.pop.windowPick(rng, id.base, replMimicShare)
				op.wins = append(op.wins, id.presentOne(w))
				op.mimic = append(op.mimic, mimic)
			}
			ops[i] = op
		case x < replAuthShare+(1-replAuthShare)/2:
			ops[i] = replOp{kind: replAppend, user: u, wins: id.present(p.genuine)}
		default:
			ops[i] = replOp{kind: replReplace, user: u, wins: id.present(p.enroll)}
		}
	}
	return dues, ops
}

// visibility times, per acknowledged write, how long after the client saw
// the owner's ack the other node's store held the record.
type visibility struct {
	mu      sync.Mutex
	applied map[[2]int]uint64 // (node, shard) -> last replicated seq applied
	pending map[[2]int][]ackAt
	lat     Samples
	cancel  []func()
}

type ackAt struct {
	seq uint64
	at  time.Time
}

func (st *replState) watchVisibility() *visibility {
	v := &visibility{applied: map[[2]int]uint64{}, pending: map[[2]int][]ackAt{}}
	for i, n := range st.nodes {
		v.cancel = append(v.cancel, n.store.SubscribeReplication(func(shard int, seq uint64, _ []byte) {
			if int(st.smap.Owner[shard]) == i {
				return // a local write, not a replicated one
			}
			now := time.Now()
			key := [2]int{i, shard}
			v.mu.Lock()
			v.applied[key] = seq
			rest := v.pending[key][:0]
			for _, a := range v.pending[key] {
				if a.seq <= seq {
					v.lat.Add(float64(now.Sub(a.at)))
				} else {
					rest = append(rest, a)
				}
			}
			v.pending[key] = rest
			v.mu.Unlock()
		}))
	}
	return v
}

// acked registers a write the owner acknowledged at time at.
func (v *visibility) acked(st *replState, owner, shard int, at time.Time) {
	seq := st.nodes[owner].store.ShardLastSeqs()[shard]
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range st.nodes {
		if i == owner {
			continue
		}
		key := [2]int{i, shard}
		if v.applied[key] >= seq {
			v.lat.Add(0) // visible before the client saw the ack
			continue
		}
		v.pending[key] = append(v.pending[key], ackAt{seq, at})
	}
}

func (v *visibility) stop() {
	for _, c := range v.cancel {
		c()
	}
}

type replPhase struct {
	loop            *openLoop
	writeLat        Samples
	authLat         Samples
	accept          acceptTally
	elapsed         time.Duration
	writes, decided int64
}

func (st *replState) runPhase(rng *rand.Rand, span time.Duration, tr *Tracer, vis *visibility, res *result) *replPhase {
	ph := &replPhase{}
	dues, ops := st.schedule(rng, span)
	start := time.Now()
	ph.loop = runOpenLoop(start, dues, 1, 5*time.Second, func(_, i int, due time.Time) {
		op := ops[i]
		id := st.ids[op.user].id
		sent := time.Now()
		if op.kind == replAuth {
			decs, err := st.client.AuthenticateBatch(id, op.wins)
			end := time.Now()
			res.count(err)
			if err != nil {
				return
			}
			res.gate(len(decs) == len(op.wins), "batch: %d decisions for %d windows", len(decs), len(op.wins))
			for k, d := range decs {
				res.gate(finite(d.Score) && knownContext(d.Context), "decision: score %v, context %q", d.Score, d.Context)
				ph.accept.add(op.mimic[k], d.Accepted)
				ph.authLat.Add(float64(end.Sub(due)))
			}
			ph.decided += int64(len(decs))
			tr.Record("transport.auth", tr.NewTrace(), 0, sent, end, false)
			return
		}
		var err error
		if op.kind == replAppend {
			_, err = st.client.Enroll(id, op.wins)
		} else {
			_, err = st.client.ReplaceEnrollment(id, op.wins)
		}
		end := time.Now()
		res.count(err)
		a := anon(id)
		if err != nil {
			st.unsure[a] = true
			return
		}
		if op.kind == replAppend {
			st.windows[a] += len(op.wins)
		} else {
			st.windows[a] = len(op.wins)
		}
		ph.writeLat.Add(float64(end.Sub(due)))
		ph.writes++
		tr.Record("transport.enroll", tr.NewTrace(), 0, sent, end, false)
		if vis != nil {
			owner, shard := st.owner(id)
			vis.acked(st, owner, shard, end)
		}
	})
	ph.elapsed = time.Since(start)
	for range ph.loop.unsent {
		res.count(fmt.Errorf("not sent: backlog over the limit"))
	}
	return ph
}

// checkConverged gates on both nodes holding every acknowledged write.
func (st *replState) checkConverged(res *result) {
	err := st.awaitConverged()
	res.gate(err == nil, "%v", err)
	for i, n := range st.nodes {
		pop := n.store.Population()
		bad := 0
		for a, want := range st.windows {
			if !st.unsure[a] && len(pop[a]) != want {
				bad++
			}
		}
		res.gate(bad == 0, "node %d: %d of %d users lack their acknowledged windows", i, bad, len(st.windows))
	}
	res.line("convergence: %d users checked on %d nodes", len(st.windows)-len(st.unsure), len(st.nodes))
}

func runReplicated(cfg config) (*result, error) {
	res := newResult()
	var st *replState
	setupS, err := repeatSetup(setupRounds, func() (func(), error) {
		var err error
		st, err = setupReplicated(cfg)
		if err != nil {
			return nil, err
		}
		return st.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.setCommon(setupS, heapMiB())
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x7e91))

	if !cfg.trace {
		ph := st.runPhase(rng, cfg.measured(), nil, nil, res)
		res.setLatency(fmt.Sprintf("enroll_p50_ms/enroll_p95_ms/enroll_p99_ms at %d ops/s", replRate), &ph.writeLat, replTail)
		res.e2e["throughput_per_s"] = float64(ph.writes) / ph.elapsed.Seconds()
		res.line("acknowledged writes = %.1f /s", res.e2e["throughput_per_s"])
		res.line("authenticate batch latency: %s", ph.authLat.Describe(1e-6, "ms"))
		ph.accept.report(res)
		res.setLateness(ph.loop)
		st.checkConverged(res)
		return res, nil
	}

	base := st.runPhase(rng, cfg.measured(), nil, nil, res)
	storeStats := func() store.Stats {
		var sum store.Stats
		for _, n := range st.nodes {
			s := n.store.Stats()
			sum.LastSeq += s.LastSeq
			sum.WALBytes += s.WALBytes
			sum.CAS.MemChunks += s.CAS.MemChunks
			sum.CAS.DiskChunks += s.CAS.DiskChunks
			sum.CAS.MemBytes += s.CAS.MemBytes
			sum.CAS.DiskBytes += s.CAS.DiskBytes
		}
		return sum
	}
	before := storeStats()
	tr := NewTracer()
	vis := st.watchVisibility()
	pauses := gcPauses()
	traced := st.runPhase(rng, cfg.measured(), tr, vis, res)
	res.tracedRuntime(pauses)
	st.checkConverged(res)
	vis.stop()
	setStoreLayers(res, before, storeStats())
	res.setOverhead(base.writeLat.Median(), traced.writeLat.Median())
	res.setLateness(traced.loop)
	ix := indexSpans(tr.Spans())
	res.setSpanLayer("transport.enroll_ms", ix.durations("transport.enroll", 1), 1e-6, "ms")
	res.setSpanLayer("transport.auth_us", ix.durations("transport.auth", replBatch), 1e-3, "us")
	vis.mu.Lock()
	res.setSpanLayer("replication.visible_ms", &vis.lat, 1e-6, "ms")
	vis.mu.Unlock()
	return res, writeSpans(tr, cfg, "replicated-write")
}
