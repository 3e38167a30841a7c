// Package fastfit is a Go reproduction of FastFIT, the fast fault-injection
// and sensitivity-analysis tool for MPI collective communications published
// at IEEE CLUSTER 2015 ("Fast Fault Injection and Sensitivity Analysis for
// Collective Communications", Feng, Gorentla Venkata, Li and Sun).
//
// FastFIT studies how applications respond when a bit flips inside the
// input parameters or data buffers of collective operations such as
// MPI_Allreduce — and makes that study *fast* by pruning the enormous
// (rank, call site, invocation) fault-injection space with three
// techniques:
//
//   - Semantic-driven pruning: collective semantics (root vs. non-root)
//     plus call-graph/communication-trace equivalence reduce the set of
//     ranks worth injecting to one or two representatives per call site.
//   - Application-context-driven pruning: invocations sharing a call stack
//     respond alike, so one representative per distinct stack suffices.
//   - ML-driven prediction: a random forest trained on a subset of results
//     predicts the sensitivity of the remaining points and reveals which
//     application features correlate with sensitivity.
//
// Because Go has no production MPI, the package ships its own simulated
// MPI runtime (ranks as goroutines, tree/ring collective algorithms over
// channel point-to-point messaging, an MPICH-style handle/validation model
// and heap-slack memory semantics) together with miniature, communication-
// faithful versions of the paper's workloads: the NAS Parallel Benchmark
// kernels IS, FT, MG and LU, and a LAMMPS-style molecular-dynamics
// application. See DESIGN.md for the substitution rationale and
// EXPERIMENTS.md for paper-versus-measured results.
//
// # Quick start
//
// Run a pruned fault-injection campaign against a bundled workload:
//
//	app, _ := fastfit.LookupApp("lu")
//	cfg := app.DefaultConfig()
//	opts := fastfit.DefaultOptions()
//	opts.TrialsPerPoint = 30
//	engine := fastfit.New(app, cfg, opts)
//	result, err := engine.RunCampaign()
//	if err != nil { ... }
//	fmt.Println(result.Summary())
//
// Custom workloads implement the App interface on top of the simulated MPI
// runtime (see examples/custom_app).
package fastfit

import (
	"context"
	"io"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/resilient"
)

// ---- simulated MPI runtime ----

// Rank is the per-process handle an application's rank function receives;
// it exposes point-to-point messaging, the collectives, phase and
// error-handling annotations, deterministic randomness and the work-budget
// Tick.
type Rank = mpi.Rank

// State is an application's state at a checkpoint (Rank.Checkpoint): a
// forked trial resumes each rank from its last one before the fault
// (Rank.Resume) instead of recomputing the prefix, and ends at a later one
// that every rank reaches in the golden run's state (State.Equal, which
// compares floats by their bits).
type State = mpi.State

// Comm is a communicator handle.
type Comm = mpi.Comm

// CommWorld is the world communicator, present in every run.
const CommWorld = mpi.CommWorld

// Buffer is a bounds-tracked region of simulated application memory with
// heap-slack semantics.
type Buffer = mpi.Buffer

// Datatype is an MPI datatype handle.
type Datatype = mpi.Datatype

// Op is an MPI reduction-operator handle.
type Op = mpi.Op

// Predefined datatype handles.
const (
	Byte       = mpi.Byte
	Int32      = mpi.Int32
	Int64      = mpi.Int64
	Float32    = mpi.Float32
	Float64    = mpi.Float64
	Complex128 = mpi.Complex128
)

// Predefined reduction operators.
const (
	OpSum  = mpi.OpSum
	OpProd = mpi.OpProd
	OpMax  = mpi.OpMax
	OpMin  = mpi.OpMin
	OpLand = mpi.OpLand
	OpLor  = mpi.OpLor
	OpBand = mpi.OpBand
	OpBor  = mpi.OpBor
)

// Buffer constructors, re-exported for applications that call the
// collectives directly rather than through the typed convenience wrappers.
var (
	NewBuffer           = mpi.NewBuffer
	NewFloat64Buffer    = mpi.NewFloat64Buffer
	NewInt64Buffer      = mpi.NewInt64Buffer
	NewInt32Buffer      = mpi.NewInt32Buffer
	NewComplex128Buffer = mpi.NewComplex128Buffer
	FromFloat64s        = mpi.FromFloat64s
	FromInt64s          = mpi.FromInt64s
	FromInt32s          = mpi.FromInt32s
	FromComplex128s     = mpi.FromComplex128s
)

// Phase labels an application's execution phase, one of the features
// FastFIT correlates with sensitivity.
type Phase = mpi.Phase

// Execution phases.
const (
	PhaseInit    = mpi.PhaseInit
	PhaseInput   = mpi.PhaseInput
	PhaseCompute = mpi.PhaseCompute
	PhaseEnd     = mpi.PhaseEnd
)

// RunOptions configures a bare application execution on the simulated
// runtime (outside any campaign).
type RunOptions = mpi.RunOptions

// RunResult reports a bare application execution.
type RunResult = mpi.RunResult

// RunRanks executes fn on n simulated MPI ranks — the lowest-level entry
// point, useful for bringing up a new workload.
func RunRanks(opts RunOptions, fn func(r *Rank) error) RunResult {
	return mpi.Run(opts, fn)
}

// ---- point-to-point extension (paper §VIII future work) ----

// P2PKind distinguishes Send and Recv operations.
type P2PKind = mpi.P2PKind

// Point-to-point kinds.
const (
	P2PSend = mpi.P2PSend
	P2PRecv = mpi.P2PRecv
)

// P2PPoint is a point-to-point fault injection point.
type P2PPoint = core.P2PPoint

// P2PPointResult aggregates a p2p point's injection tests.
type P2PPointResult = core.P2PPointResult

// Request is a pending nonblocking point-to-point operation.
type Request = mpi.Request

// ---- workloads ----

// App is a workload FastFIT can study.
type App = apps.App

// Config parameterises one application execution.
type Config = apps.Config

// Apps returns the bundled workloads (is, ft, mg, lu, minimd) keyed by
// name.
func Apps() map[string]App { return all.Registry() }

// AppNames returns the bundled workload names in sorted order.
func AppNames() []string { return all.Names() }

// LookupApp returns a bundled workload by name.
func LookupApp(name string) (App, error) { return all.Lookup(name) }

// ---- fault model ----

// Fault is one planned bit flip addressed to a fault injection point.
type Fault = fault.Fault

// Target names the collective input parameter a fault corrupts.
type Target = fault.Target

// Injection targets.
const (
	TargetSendBuf   = fault.TargetSendBuf
	TargetRecvBuf   = fault.TargetRecvBuf
	TargetCount     = fault.TargetCount
	TargetCountsVec = fault.TargetCountsVec
	TargetDatatype  = fault.TargetDatatype
	TargetOp        = fault.TargetOp
	TargetRoot      = fault.TargetRoot
	TargetComm      = fault.TargetComm
)

// ---- outcomes (paper Table I) ----

// Outcome is one of the six application-response classes.
type Outcome = classify.Outcome

// The six response classes.
const (
	Success     = classify.Success
	AppDetected = classify.AppDetected
	MPIErr      = classify.MPIErr
	SegFault    = classify.SegFault
	WrongAns    = classify.WrongAns
	InfLoop     = classify.InfLoop
	NumOutcomes = classify.NumOutcomes
)

// OutcomeCounts tallies outcomes across trials.
type OutcomeCounts = classify.Counts

// ---- the FastFIT engine ----

// Engine drives the profiling, injection and learning phases for one
// application configuration.
type Engine = core.Engine

// Options configures a campaign. The options are grouped into embedded
// sub-structs by concern (see ExecOptions, PruningOptions, MLOptions,
// AdaptiveOptions, NetworkOptions, ForkOptions); unambiguous field reads
// keep working through embedded-field promotion (opts.Seed,
// opts.TrialsPerPoint, ...).
type Options = core.Options

// ExecOptions groups trial-execution options (budget, seed, timeout,
// concurrency, policy) — the Exec sub-struct of Options.
type ExecOptions = core.Exec

// PruningOptions groups the static pruning switches — the Pruning
// sub-struct of Options.
type PruningOptions = core.Pruning

// MLOptions groups the ML-driven-pruning options — the ML sub-struct of
// Options.
type MLOptions = core.ML

// AdaptiveOptions groups the sequential early-stopping options — the
// Adaptive sub-struct of Options.
type AdaptiveOptions = core.Adaptive

// NetworkOptions groups the standing network fault environment — the
// Network sub-struct of Options.
type NetworkOptions = core.Network

// ForkOptions groups the fork-at-injection-site execution options — the
// Fork sub-struct of Options.
type ForkOptions = core.Fork

// FaultPolicy selects which parameter each injection test corrupts.
type FaultPolicy = core.FaultPolicy

// Injection policies.
const (
	// PolicyDataBuffer flips bits in the collective's data buffer when it
	// has one (the paper's §V-C policy).
	PolicyDataBuffer = core.PolicyDataBuffer
	// PolicyAllParams flips bits in a uniformly random input parameter
	// (the paper's §II basic methodology).
	PolicyAllParams = core.PolicyAllParams
	// PolicyNetwork injects network faults — egress message drops, egress
	// link failures and mid-run node crashes — at collective call sites
	// instead of corrupting data.
	PolicyNetwork = core.PolicyNetwork
)

// Point is one fault injection point with its application features.
type Point = core.Point

// PointResult aggregates one point's injection tests.
type PointResult = core.PointResult

// TrialResult is one injection test.
type TrialResult = core.TrialResult

// Prediction is a point whose sensitivity was predicted instead of
// measured.
type Prediction = core.Prediction

// CampaignResult is the complete outcome of a campaign, including the
// Table III pruning accounting.
type CampaignResult = core.CampaignResult

// DefaultOptions returns the paper's configuration: all three pruning
// techniques enabled, 100 trials per point, a 65% accuracy threshold and
// four error-rate levels.
func DefaultOptions() Options { return core.DefaultOptions() }

// New builds an engine for one application configuration.
func New(app App, cfg Config, opts Options) *Engine { return core.New(app, cfg, opts) }

// ---- campaign observation (typed event stream) ----

// Event is one record in a campaign's observation stream — the sum type
// whose concrete members are CampaignStarted, FaultDomainEvent,
// PhaseChanged, PointStarted, PointCompleted, PointSettled, PointRefined,
// BatchVerified, PointRetried, PointQuarantined, CheckpointAppended,
// SnapshotStats, CampaignFinished and Note (and, on a distributed
// coordinator's stream, ShardLease).
type Event = core.Event

// Observer receives campaign events via Options.Observer. Delivery is
// serialised and well-ordered: CampaignStarted first, completion events
// with monotonically increasing Completed counts, CampaignFinished last.
type Observer = core.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = core.ObserverFunc

// MultiObserver fans one event stream out to several observers.
func MultiObserver(obs ...Observer) Observer { return core.MultiObserver(obs...) }

// CampaignPhase names a stage of the campaign pipeline.
type CampaignPhase = core.CampaignPhase

// Campaign pipeline stages for PhaseChanged events.
const (
	CampaignProfiling  = core.CampaignProfiling
	CampaignPruning    = core.CampaignPruning
	CampaignInjecting  = core.CampaignInjecting
	CampaignLearning   = core.CampaignLearning
	CampaignPredicting = core.CampaignPredicting
	CampaignRefining   = core.CampaignRefining
)

// The event types. See the core package documentation for field details.
type (
	// CampaignStarted opens every campaign's event stream.
	CampaignStarted = core.CampaignStarted
	// FaultDomainEvent reports one element of the campaign's standing
	// network fault environment (topology, failed links, drop budgets,
	// crashed nodes), emitted directly after CampaignStarted.
	FaultDomainEvent = core.FaultDomainEvent
	// PhaseChanged announces entry into a pipeline stage.
	PhaseChanged = core.PhaseChanged
	// PointStarted announces that injection of one point has begun.
	PointStarted = core.PointStarted
	// PointCompleted carries one point's full injection result with
	// monotonic progress counts.
	PointCompleted = core.PointCompleted
	// PointSettled reports a point the adaptive settling rule stopped
	// before its full trial budget (Options.Adaptive.Enabled).
	PointSettled = core.PointSettled
	// PointRefined reports a point extended by the adaptive refinement
	// pass after exhausting its budget unsettled.
	PointRefined = core.PointRefined
	// BatchVerified reports one ML verification round with model accuracy.
	BatchVerified = core.BatchVerified
	// PointRetried reports one failed harness attempt that will be retried.
	PointRetried = core.PointRetried
	// PointQuarantined reports a poison point withdrawn from the campaign.
	PointQuarantined = core.PointQuarantined
	// CheckpointAppended reports a durably journalled point record.
	CheckpointAppended = core.CheckpointAppended
	// SnapshotStats reports the fork-at-injection-site accounting (distinct
	// snapshots, forked trials, full-replay trials), emitted once right
	// before CampaignFinished.
	SnapshotStats = core.SnapshotStats
	// CampaignFinished closes the stream with the final accounting.
	CampaignFinished = core.CampaignFinished
	// Note is a free-text progress line.
	Note = core.Note
)

// StreamStats is an Observer maintaining running campaign statistics with
// O(1) updates: live outcome distribution, per-site error rates, progress,
// throughput and ETA.
type StreamStats = core.StreamStats

// StreamSnapshot is a point-in-time view of a campaign's running
// statistics.
type StreamSnapshot = core.StreamSnapshot

// NewStreamStats builds an empty statistics observer.
func NewStreamStats() *StreamStats { return core.NewStreamStats() }

// JSONLObserver appends every event as one JSON line for dashboards.
type JSONLObserver = core.JSONLObserver

// NewJSONLObserver streams events to w as JSONL.
func NewJSONLObserver(w io.Writer) *JSONLObserver { return core.NewJSONLObserver(w) }

// CreateJSONLObserver creates the file at path and streams events into it.
func CreateJSONLObserver(path string) (*JSONLObserver, error) {
	return core.CreateJSONLObserver(path)
}

// LogfObserver adapts a printf-style logger to the event stream, rendering
// notes, ML verifications and supervision incidents as progress lines.
func LogfObserver(logf func(format string, args ...any)) Observer {
	return core.LogfObserver(logf)
}

// ---- campaign supervision ----

// Supervisor wraps a campaign in a resilient runner: a point-level worker
// pool, an append-only checkpoint journal for interrupt/resume, and
// per-point watchdogs that retry and ultimately quarantine points which
// repeatedly wedge the harness itself.
type Supervisor = core.Supervisor

// SupervisorOptions configures a supervised campaign.
type SupervisorOptions = core.SupervisorOptions

// SupervisedResult is a campaign outcome plus supervision accounting
// (quarantined points, checkpoint restores, harness retries).
type SupervisedResult = core.SupervisedResult

// QuarantinedPoint is a poison point withdrawn from a campaign after
// repeatedly breaking the injection harness.
type QuarantinedPoint = core.QuarantinedPoint

// ErrCheckpointMismatch reports a checkpoint journal written by a
// different campaign (app, config, options or point space differ).
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// NewSupervisor builds a supervisor over an engine.
func NewSupervisor(e *Engine, opts SupervisorOptions) *Supervisor {
	return core.NewSupervisor(e, opts)
}

// ResumeCampaign resumes a supervised campaign from an existing checkpoint
// journal, failing if the journal is missing or mismatched.
func ResumeCampaign(ctx context.Context, e *Engine, opts SupervisorOptions) (*SupervisedResult, error) {
	return core.ResumeCampaign(ctx, e, opts)
}

// ---- analysis helpers ----

// OutcomeBreakdown tallies all trials of all measured points.
func OutcomeBreakdown(measured []PointResult) OutcomeCounts {
	return core.OutcomeBreakdown(measured)
}

// CorrelationTable computes the paper's Eq. 1 correlation between the
// indicator-expanded application features and the error-rate level.
func CorrelationTable(measured []PointResult, levels int) map[string]float64 {
	return core.CorrelationTable(measured, levels)
}

// FeatureNames are the six application features of the paper's §III-C.
var FeatureNames = core.FeatureNames

// ExpandedFeatureNames are the indicator-expanded features of Table IV.
var ExpandedFeatureNames = core.ExpandedFeatureNames

// ---- resilient-design outputs ----

// Advice is a per-site protection recommendation derived from campaign
// results (the paper's adaptive fault-tolerance motivation).
type Advice = core.Advice

// AdviceThresholds tunes the recommendation criterion; the zero value uses
// the paper's 20% error-rate gate.
type AdviceThresholds = core.AdviceThresholds

// Advise turns measured results into per-site protection recommendations.
func Advise(measured []PointResult, th AdviceThresholds) []Advice {
	return core.Advise(measured, th)
}

// LoadCampaignJSON reads a campaign result persisted with
// CampaignResult.SaveJSON.
func LoadCampaignJSON(path string) (*CampaignResult, error) {
	return core.LoadCampaignJSON(path)
}

// ---- topology and network faults ----

// Topology describes a simulated interconnect: which directed links exist
// and how messages are routed across them. Routing is a pure function of
// the message's endpoints, so link-fault campaigns classify
// deterministically.
type Topology = mpi.Topology

// ParseTopology resolves a topology spec — "flat" (the paper's implicit
// full crossbar), "ring", "torus" or "torus:XxY" — over n ranks. The empty
// spec means flat.
func ParseTopology(spec string, n int) (Topology, error) { return mpi.ParseTopology(spec, n) }

// Network overlays link/egress fault state and message accounting on a
// Topology; pass one to RunOptions.Network to route a simulated run's
// point-to-point traffic through it.
type Network = mpi.Network

// NewNetwork builds a fault-free network over a topology.
func NewNetwork(topo Topology) *Network { return mpi.NewNetwork(topo) }

// NetStats is a network's message/hop/latency accounting, the overhead
// side of the algorithm-shootout comparison.
type NetStats = mpi.NetStats

// NetFault is one element of a structured network fault plan.
type NetFault = fault.NetFault

// NetFaultKind discriminates NetFault entries.
type NetFaultKind = fault.NetFaultKind

// Network fault kinds.
const (
	// LinkFail permanently severs the link between two ranks at start.
	LinkFail = fault.LinkFail
	// LinkDrop silently drops the next Count messages on an egress link.
	LinkDrop = fault.LinkDrop
	// NodeCrash marks a rank's node dead before launch.
	NodeCrash = fault.NodeCrash
)

// ParseNetPlan parses a comma-separated fault plan such as
// "link:1-2,drop:0-3:2,crash:5". Set the result as Options.Network.Plan to
// apply it at the start of every injected run.
func ParseNetPlan(spec string) ([]NetFault, error) { return fault.ParseNetPlan(spec) }

// LoadNetPlanJSON parses a JSON-encoded fault plan ([]NetFault).
func LoadNetPlanJSON(data []byte) ([]NetFault, error) { return fault.LoadNetPlanJSON(data) }

// NetPlanString renders a plan in ParseNetPlan syntax.
func NetPlanString(plan []NetFault) string { return fault.NetPlanString(plan) }

// ---- resilient collective algorithms ----

// Algorithm is one collective-implementation variant from the resilient
// zoo; campaigns sweep variants against a fixed fault plan via
// Config.Algorithm (see the shoot workload and examples/algorithm_shootout).
type Algorithm = resilient.Algorithm

// AlgorithmNames returns the variant names, sorted: baseline, checksum,
// corrected, ftring, hbreorg, voted.
func AlgorithmNames() []string { return resilient.Names() }

// LookupAlgorithm resolves a variant by name; "" means "baseline".
func LookupAlgorithm(name string) (Algorithm, error) { return resilient.Get(name) }
