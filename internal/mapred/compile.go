package mapred

import (
	"fmt"

	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// CompileOptions parameterize plan compilation.
type CompileOptions struct {
	// Points are the verification-point vertex IDs chosen by the graph
	// analyzer; a PhysDigest op is instrumented at each.
	Points []int
	// NumReduces is the reduce parallelism for parallel shuffle jobs
	// (global sorts and GROUP ALL always run one reduce task). The paper
	// requires all replicas of a job to use the same value (§4.1).
	NumReduces int
}

// tempPrefix is the DFS directory receiving intermediate (between-job)
// outputs.
const tempPrefix = "tmp"

// Compile lowers a logical plan into a DAG of MapReduce jobs, mirroring
// how Pig compiles scripts for Hadoop (paper §2.2): map-side chains
// (LOAD/FILTER/FOREACH/UNION) run until a shuffle operator
// (GROUP/JOIN/ORDER/DISTINCT); the shuffle's consumers run reduce-side
// until the next shuffle or STORE, at which point output materializes to
// the DFS. Vertices with several consumers materialize once and are read
// by each consumer job. Verification points become PhysDigest operators
// at the corresponding position in the op chains.
func Compile(p *pig.Plan, opts CompileOptions) ([]*JobSpec, error) {
	if opts.NumReduces <= 0 {
		opts.NumReduces = 2
	}
	c := &compiler{
		opts:   opts,
		points: make(map[int]bool, len(opts.Points)),
		mat:    make(map[int]matInfo),
	}
	for _, pt := range opts.Points {
		c.points[pt] = true
	}
	for _, store := range p.Stores() {
		if err := c.compileStore(store); err != nil {
			return nil, err
		}
	}
	return c.jobs, nil
}

type matInfo struct {
	path  string
	jobID string
}

type compiler struct {
	opts   CompileOptions
	points map[int]bool
	mat    map[int]matInfo // vertex ID -> materialized location
	jobs   []*JobSpec
	nextID int
}

func (c *compiler) newJobID() string {
	id := fmt.Sprintf("j%02d", c.nextID)
	c.nextID++
	return id
}

// shared reports whether v's output has several consumers and therefore
// materializes once. LOAD reads are repeatable and GROUP output (bags)
// only exists inside its job, so neither is shared.
func shared(v *pig.Vertex) bool {
	return len(v.Children) > 1 && v.Kind != pig.OpLoad && v.Kind != pig.OpGroup
}

// reduceSide reports whether v executes on the reduce side of some job,
// i.e. a shuffle is reached walking up through exclusive map operators.
func reduceSide(v *pig.Vertex) bool {
	for {
		if v.Kind.IsShuffle() {
			return true
		}
		if v.Kind == pig.OpLoad || v.Kind == pig.OpUnion || len(v.Parents) != 1 {
			return false
		}
		v = v.Parents[0]
		if shared(v) {
			return false // materialization cut: below it is map side
		}
	}
}

// digestOps returns the digest op for v if it carries a verification
// point.
func (c *compiler) digestOps(v *pig.Vertex) []Op {
	if c.points[v.ID] {
		return []Op{{Kind: PhysDigest, Point: v.ID}}
	}
	return nil
}

func (c *compiler) compileStore(store *pig.Vertex) error {
	parent := store.Parents[0]
	if shared(parent) {
		// Materialize once, then publish with an identity job.
		mi, err := c.materialize(parent)
		if err != nil {
			return err
		}
		c.jobs = append(c.jobs, &JobSpec{
			ID:   c.newJobID(),
			Deps: []string{mi.jobID},
			Inputs: []JobInput{{
				Path:   mi.path,
				Schema: parent.Schema,
				Tag:    -1,
			}},
			NumReduces: 1,
			Output:     store.Path,
			OutVertex:  parent.ID,
			Final:      true,
		})
		return nil
	}
	_, err := c.buildJob(parent, store.Path, true)
	return err
}

// materialize ensures v's output exists at a temp location, building its
// job on first use.
func (c *compiler) materialize(v *pig.Vertex) (matInfo, error) {
	if mi, ok := c.mat[v.ID]; ok {
		return mi, nil
	}
	path := fmt.Sprintf("%s/v%02d", tempPrefix, v.ID)
	jobID, err := c.buildJob(v, path, false)
	if err != nil {
		return matInfo{}, err
	}
	mi := matInfo{path: path, jobID: jobID}
	c.mat[v.ID] = mi
	return mi, nil
}

// buildJob constructs the job materializing v's output at outPath and
// returns its job ID. It walks up from v collecting the trailing operator
// chain until the governing shuffle (reduce-side job), a LOAD/UNION
// (map-only job) or a materialization cut (map-only job over a temp).
func (c *compiler) buildJob(v *pig.Vertex, outPath string, final bool) (string, error) {
	var chain []*pig.Vertex // source-exclusive, ordered source -> v
	cur := v
	for {
		if cur != v && shared(cur) {
			mi, err := c.materialize(cur)
			if err != nil {
				return "", err
			}
			in := JobInput{Path: mi.path, Schema: cur.Schema, Tag: -1}
			return c.emitChainJob([]JobInput{in}, []string{mi.jobID}, chain, v, outPath, final)
		}
		switch cur.Kind {
		case pig.OpLoad:
			in := JobInput{Path: cur.Path, Schema: cur.Schema, Tag: -1, Ops: c.digestOps(cur)}
			return c.emitChainJob([]JobInput{in}, nil, chain, v, outPath, final)
		case pig.OpUnion:
			inputs, deps, err := c.unionInputs(cur)
			if err != nil {
				return "", err
			}
			return c.emitChainJob(inputs, deps, chain, v, outPath, final)
		case pig.OpGroup, pig.OpJoin, pig.OpOrder, pig.OpDistinct:
			return c.emitShuffleJob(cur, chain, v, outPath, final)
		default:
			chain = append([]*pig.Vertex{cur}, chain...)
			cur = cur.Parents[0]
		}
	}
}

// unionInputs flattens a UNION into one JobInput per upstream branch,
// instrumenting the union's own verification point on every branch.
func (c *compiler) unionInputs(u *pig.Vertex) ([]JobInput, []string, error) {
	var inputs []JobInput
	var deps []string
	for _, parent := range u.Parents {
		ins, ds, err := c.inputsFor(parent)
		if err != nil {
			return nil, nil, err
		}
		inputs = append(inputs, ins...)
		deps = append(deps, ds...)
	}
	if dops := c.digestOps(u); dops != nil {
		for i := range inputs {
			inputs[i].Ops = append(inputs[i].Ops, dops...)
		}
	}
	return inputs, deps, nil
}

// inputsFor builds the map-side inputs delivering p's output stream.
func (c *compiler) inputsFor(p *pig.Vertex) ([]JobInput, []string, error) {
	switch {
	case p.Kind == pig.OpLoad:
		return []JobInput{{Path: p.Path, Schema: p.Schema, Tag: -1, Ops: c.digestOps(p)}}, nil, nil
	case p.Kind.IsShuffle() || shared(p) || reduceSide(p):
		mi, err := c.materialize(p)
		if err != nil {
			return nil, nil, err
		}
		return []JobInput{{Path: mi.path, Schema: p.Schema, Tag: -1}}, []string{mi.jobID}, nil
	case p.Kind == pig.OpUnion:
		return c.unionInputs(p)
	case len(p.Parents) == 1:
		inputs, deps, err := c.inputsFor(p.Parents[0])
		if err != nil {
			return nil, nil, err
		}
		op, err := mapOpOf(p)
		if err != nil {
			return nil, nil, err
		}
		for i := range inputs {
			inputs[i].Ops = append(inputs[i].Ops, op)
			inputs[i].Ops = append(inputs[i].Ops, c.digestOps(p)...)
		}
		return inputs, deps, nil
	default:
		return nil, nil, fmt.Errorf("mapred: cannot compile %v as a map-side operator", p)
	}
}

// mapOpOf lowers a map-side vertex to a physical op.
func mapOpOf(v *pig.Vertex) (Op, error) {
	switch v.Kind {
	case pig.OpFilter:
		return Op{Kind: PhysFilter, Pred: v.Pred}, nil
	case pig.OpForEach:
		return Op{Kind: PhysProject, Gens: v.Gens}, nil
	case pig.OpSample:
		return Op{Kind: PhysSample, Fraction: v.Fraction}, nil
	default:
		return Op{}, fmt.Errorf("mapred: %v is not a map-side operator", v)
	}
}

// emitChainJob finishes a non-shuffle walk: the chain ops apply map-side.
// A LIMIT anywhere in the chain forces a single-reduce pass-through job
// so the limit is global.
func (c *compiler) emitChainJob(inputs []JobInput, deps []string, chain []*pig.Vertex, out *pig.Vertex, outPath string, final bool) (string, error) {
	limitAt := -1
	for i, cv := range chain {
		if cv.Kind == pig.OpLimit {
			limitAt = i
			break
		}
	}
	job := &JobSpec{
		ID:         c.newJobID(),
		Deps:       deps,
		NumReduces: 1,
		Output:     outPath,
		OutVertex:  out.ID,
		Final:      final,
	}
	if limitAt < 0 {
		mapOps, err := c.lowerChain(chain)
		if err != nil {
			return "", err
		}
		for i := range inputs {
			inputs[i].Ops = append(inputs[i].Ops, mapOps...)
		}
		job.Inputs = inputs
		c.jobs = append(c.jobs, job)
		return job.ID, nil
	}
	// Split at the limit: pre-limit ops map-side, the rest reduce-side
	// behind a constant key and one reduce task.
	pre, err := c.lowerChain(chain[:limitAt])
	if err != nil {
		return "", err
	}
	post, err := c.lowerChain(chain[limitAt:])
	if err != nil {
		return "", err
	}
	for i := range inputs {
		inputs[i].Ops = append(inputs[i].Ops, pre...)
		inputs[i].KeyCols = []int{}
	}
	job.Inputs = inputs
	job.Reduce = &ReduceSpec{Kind: ReduceSort, PostOps: post}
	c.jobs = append(c.jobs, job)
	return job.ID, nil
}

// lowerChain lowers consecutive non-shuffle vertices to physical ops with
// their verification points.
func (c *compiler) lowerChain(chain []*pig.Vertex) ([]Op, error) {
	var ops []Op
	for _, v := range chain {
		switch v.Kind {
		case pig.OpFilter, pig.OpForEach, pig.OpSample:
			op, err := mapOpOf(v)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
		case pig.OpLimit:
			ops = append(ops, Op{Kind: PhysLimit, Limit: v.LimitN})
		default:
			return nil, fmt.Errorf("mapred: unexpected %v in operator chain", v)
		}
		ops = append(ops, c.digestOps(v)...)
	}
	return ops, nil
}

// emitShuffleJob finishes a walk that reached shuffle vertex s: its
// parents feed the map side, the chain below it runs reduce-side.
func (c *compiler) emitShuffleJob(s *pig.Vertex, chain []*pig.Vertex, out *pig.Vertex, outPath string, final bool) (string, error) {
	job := &JobSpec{
		ID:         c.newJobID(),
		NumReduces: c.opts.NumReduces,
		Output:     outPath,
		OutVertex:  out.ID,
		Final:      final,
	}
	reduce := &ReduceSpec{}
	job.Reduce = reduce

	attach := func(parent *pig.Vertex, keyCols []int, tag int) error {
		inputs, deps, err := c.inputsFor(parent)
		if err != nil {
			return err
		}
		for i := range inputs {
			// A GROUP/shuffle vertex's own verification point digests
			// the pre-shuffle stream (the data flowing through the
			// operator), computed map-side per task.
			if s.Kind == pig.OpGroup {
				inputs[i].Ops = append(inputs[i].Ops, c.digestOps(s)...)
			}
			// Keep empty-but-non-nil: nil means "map-only", empty means
			// "constant shuffle key".
			kc := make([]int, len(keyCols))
			copy(kc, keyCols)
			inputs[i].KeyCols = kc
			inputs[i].Tag = tag
		}
		job.Inputs = append(job.Inputs, inputs...)
		job.Deps = append(job.Deps, deps...)
		return nil
	}

	switch s.Kind {
	case pig.OpGroup:
		reduce.Kind = ReduceAggregate
		if len(chain) == 0 || chain[0].Kind != pig.OpForEach {
			return "", fmt.Errorf("mapred: GROUP %q must be consumed by FOREACH", s.Alias)
		}
		fe := chain[0]
		reduce.Gens = fe.Gens
		reduce.Combine = combinableGens(fe.Gens, s.Parents[0].Schema)
		keyCols := s.GroupCols
		if s.GroupAll {
			keyCols = []int{}
			job.NumReduces = 1
		}
		if err := attach(s.Parents[0], keyCols, -1); err != nil {
			return "", err
		}
		reduce.PostOps = append(reduce.PostOps, c.digestOps(fe)...)
		post, err := c.lowerChain(chain[1:])
		if err != nil {
			return "", err
		}
		reduce.PostOps = append(reduce.PostOps, post...)
	case pig.OpJoin:
		reduce.Kind = ReduceJoin
		for side, parent := range s.Parents {
			if err := attach(parent, s.JoinCols[side], side); err != nil {
				return "", err
			}
		}
		reduce.PostOps = append(reduce.PostOps, c.digestOps(s)...)
		post, err := c.lowerChain(chain)
		if err != nil {
			return "", err
		}
		reduce.PostOps = append(reduce.PostOps, post...)
	case pig.OpOrder:
		reduce.Kind = ReduceSort
		reduce.OrderBy = s.OrderBy
		job.NumReduces = 1
		if err := attach(s.Parents[0], []int{}, -1); err != nil {
			return "", err
		}
		reduce.PostOps = append(reduce.PostOps, c.digestOps(s)...)
		post, err := c.lowerChain(chain)
		if err != nil {
			return "", err
		}
		reduce.PostOps = append(reduce.PostOps, post...)
	case pig.OpDistinct:
		reduce.Kind = ReduceDistinct
		// DISTINCT always combines: dedup keyed on the canonical encoding
		// of the whole tuple keeps the first arrival, and merging
		// task-local firsts in map-task order preserves the global first.
		reduce.Combine = true
		keyCols := make([]int, s.Schema.Len())
		for i := range keyCols {
			keyCols[i] = i
		}
		if err := attach(s.Parents[0], keyCols, -1); err != nil {
			return "", err
		}
		reduce.PostOps = append(reduce.PostOps, c.digestOps(s)...)
		post, err := c.lowerChain(chain)
		if err != nil {
			return "", err
		}
		reduce.PostOps = append(reduce.PostOps, post...)
	default:
		return "", fmt.Errorf("mapred: unsupported shuffle operator %v", s)
	}

	// LIMIT inside the reduce chain of a multi-reduce job would be
	// per-partition; force a single reduce task for global semantics.
	for _, op := range reduce.PostOps {
		if op.Kind == PhysLimit {
			job.NumReduces = 1
		}
	}
	c.jobs = append(c.jobs, job)
	return job.ID, nil
}

// combinableGens reports whether every aggregate generator of a grouped
// FOREACH decomposes into mergeable partial state (pig.Aggregate
// .Algebraic against the bag schema — the GROUP parent's output, which
// is exactly the post-chain tuple entering the shuffle). Key
// expressions are always fine: they only read the group key, which the
// combiner carries through unchanged.
func combinableGens(gens []pig.GenItem, bag *tuple.Schema) bool {
	for _, g := range gens {
		if g.Agg != nil && !g.Agg.Algebraic(bag) {
			return false
		}
	}
	return true
}
