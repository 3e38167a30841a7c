package sense

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"github.com/fastfit/fastfit/internal/ml"
	"github.com/fastfit/fastfit/internal/recfile"
	"github.com/fastfit/fastfit/internal/stats"
)

// modelVersion identifies the model file's on-disk schema.
const modelVersion = 1

// Model is a trained cross-campaign sensitivity model: one forest over the
// union of every stored campaign, plus the per-class precision calibration
// measured by leave-one-app-out holdout during training. The calibration is
// what makes the confidence honest for transfer: each app's records were
// predicted by a forest that never saw that app.
type Model struct {
	Forest *ml.Forest
	Cal    *ml.Calibration
	// Support is the training set's feature envelope; the Advisor refuses
	// subspaces outside it instead of letting the forest extrapolate.
	Support *Support
	// Apps are the app ids the model was trained on, sorted.
	Apps []string
	// Records is the number of training records.
	Records int
}

// Support records the training set's feature envelope. A decision forest
// has an answer for every input — leaves don't know they are extrapolating
// — so predictions are only meaningful inside the envelope: categorical
// columns (fault policy, collective type, phase) must take a value the
// training set contained, ordinal columns must fall inside the observed
// [min, max]. Everything outside falls back to real injection.
type Support struct {
	// Cats maps a categorical column index to its sorted distinct training
	// values.
	Cats map[int][]float64 `json:"cats"`
	// Lo and Hi are the per-column training minima and maxima, in
	// FeatureNames order.
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// newSupport computes the envelope of a non-empty training set.
func newSupport(rows [][]float64) *Support {
	cols := len(FeatureNames)
	s := &Support{Cats: map[int][]float64{}, Lo: make([]float64, cols), Hi: make([]float64, cols)}
	copy(s.Lo, rows[0])
	copy(s.Hi, rows[0])
	for _, row := range rows {
		for c, v := range row {
			s.Lo[c] = math.Min(s.Lo[c], v)
			s.Hi[c] = math.Max(s.Hi[c], v)
		}
	}
	for _, c := range categoricalCols {
		seen := map[float64]bool{}
		for _, row := range rows {
			seen[row[c]] = true
		}
		vals := make([]float64, 0, len(seen))
		for v := range seen {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		s.Cats[c] = vals
	}
	return s
}

// Contains reports whether x lies inside the training envelope.
func (s *Support) Contains(x []float64) bool {
	if len(x) != len(s.Lo) {
		return false
	}
	for c, v := range x {
		if v < s.Lo[c] || v > s.Hi[c] {
			return false
		}
	}
	for _, c := range categoricalCols {
		found := false
		for _, v := range s.Cats[c] {
			if v == x[c] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// validate rejects a structurally impossible envelope loaded from disk.
func (s *Support) validate() error {
	cols := len(FeatureNames)
	if len(s.Lo) != cols || len(s.Hi) != cols {
		return fmt.Errorf("support envelope covers %d/%d columns, this build has %d", len(s.Lo), len(s.Hi), cols)
	}
	for c := range s.Lo {
		if math.IsNaN(s.Lo[c]) || math.IsNaN(s.Hi[c]) || s.Lo[c] > s.Hi[c] {
			return fmt.Errorf("support envelope column %d has impossible bounds [%v, %v]", c, s.Lo[c], s.Hi[c])
		}
	}
	for _, c := range categoricalCols {
		if len(s.Cats[c]) == 0 {
			return fmt.Errorf("support envelope has no values for categorical column %d (%s)", c, FeatureNames[c])
		}
	}
	return nil
}

// TrainConfig parameterises cross-campaign training.
type TrainConfig struct {
	Seed  int64
	Trees int // forest size (0 → ml default)
	Depth int // per-tree depth bound (0 → ml default)
}

// Train fits a model over the given records. At least two distinct apps
// are required — with a single app there is no holdout to calibrate
// transfer against, and a model that cannot state its transfer precision
// must not advise.
func Train(recs []Record, cfg TrainConfig) (*Model, error) {
	for i, r := range recs {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("training record %d: %w", i, err)
		}
	}
	// Pool to subspace granularity first: the model predicts per subspace,
	// so it must train on one pooled tally per subspace, not on conflicting
	// per-point majorities. Then drop the near-tie subspaces — their labels
	// are noise no model can transfer.
	var pooled []Record
	for _, r := range PoolBySubspace(recs) {
		if labelConfident(r) {
			pooled = append(pooled, r)
		}
	}
	byApp := map[string][]Record{}
	for _, r := range pooled {
		byApp[r.App] = append(byApp[r.App], r)
	}
	if len(byApp) < 2 {
		return nil, fmt.Errorf("training needs label-confident records from at least 2 apps, got %d", len(byApp))
	}
	apps := make([]string, 0, len(byApp))
	for a := range byApp {
		apps = append(apps, a)
	}
	sort.Strings(apps)

	fc := ml.ForestConfig{Trees: cfg.Trees, MaxDepth: cfg.Depth, Seed: cfg.Seed}

	// Leave-one-app-out calibration: each app's records are predicted by a
	// forest trained on every other app — exactly what Advise will be asked
	// to do. The per-class tallies kept are those of the *weakest* holdout
	// leg (smallest Wilson lower bound), not the pool: pooling lets one
	// over-represented, easy-to-predict app mask classes that do not
	// transfer to the others, which inverts the confidence ordering. A
	// class's confidence must survive the app it transferred to worst.
	legs := make([]*ml.Calibration, 0, len(apps))
	for _, holdout := range apps {
		var train []Record
		for _, a := range apps {
			if a != holdout {
				train = append(train, byApp[a]...)
			}
		}
		f := ml.TrainForest(dataset(train), fc)
		rows := make([][]float64, len(train))
		for i, r := range train {
			rows[i] = r.Vector()
		}
		// Score the leg only on records an Advisor over this leg would
		// actually serve — inside the leg's training envelope and above the
		// vote bar — so the calibrated population matches the servable one.
		sup := newSupport(rows)
		leg := ml.NewCalibration(Classes)
		for _, r := range byApp[holdout] {
			vec := r.Vector()
			if !sup.Contains(vec) {
				continue
			}
			if class, lo := votedClass(f, vec, calibrationConfidence); lo > VoteBar {
				leg.Add(class, r.Dominant())
			}
		}
		legs = append(legs, leg)
	}
	cal := worstLegCalibration(legs)

	rows := make([][]float64, len(pooled))
	for i, r := range pooled {
		rows[i] = r.Vector()
	}
	return &Model{
		Forest:  ml.TrainForest(dataset(pooled), fc),
		Cal:     cal,
		Support: newSupport(rows),
		Apps:    apps,
		Records: len(recs),
	}, nil
}

// labelConfident reports whether a pooled record's dominant class is a
// statistically real majority — its share's Wilson lower bound clears 1/3 —
// rather than a near-tie whose argmax is a coin flip. Training on coin-flip
// labels teaches the forest confident nonsense: the label another campaign
// measures for the same subspace flips sides at random. Ambiguous records
// are excluded from training (and so from the support envelope — a
// categorical value observed only in ambiguous subspaces is refused at
// serve time rather than predicted).
func labelConfident(r Record) bool {
	return stats.WilsonLower(r.Counts[r.Dominant()], r.Trials, calibrationConfidence) > 1.0/3
}

// VoteBar is the fixed ensemble-vote Wilson lower bound a prediction must
// clear before it is either calibrated during training or served by an
// Advisor. Subspaces whose outcome is a genuine near-tie (the forest's
// votes split) are irreducibly unpredictable per point — their argmax label
// is a coin flip — and letting them into the per-class calibration tallies
// dilutes the precision of the subspaces the model actually knows. The bar
// keeps the calibrated population identical to the servable population.
const VoteBar = 0.5

// votedClass returns the forest's argmax class for x (lowest index wins
// ties) and the Wilson lower bound of its vote share.
func votedClass(f *ml.Forest, x []float64, confidence float64) (int, float64) {
	proba := f.PredictProba(x)
	class := 0
	for c, p := range proba {
		if p > proba[class] {
			class = c
		}
	}
	trees := f.Trees()
	votes := int(math.Round(proba[class] * float64(trees)))
	return class, stats.WilsonLower(votes, trees, confidence)
}

// worstLegCalibration keeps, per class, the tallies of the holdout leg with
// the smallest Wilson lower bound on precision among the legs that
// predicted the class at all. A class no leg ever predicted keeps zero
// tallies (bound 0, never served); a class some leg predicted and always
// got wrong keeps that leg's tallies, so the bound stays 0.
func worstLegCalibration(legs []*ml.Calibration) *ml.Calibration {
	cal := ml.NewCalibration(Classes)
	for c := 0; c < Classes; c++ {
		worst, bound := -1, 2.0
		for i, leg := range legs {
			correct, predicted := leg.Counts(c)
			if predicted == 0 {
				continue
			}
			if lo := stats.WilsonLower(correct, predicted, calibrationConfidence); worst < 0 || lo < bound {
				worst, bound = i, lo
			}
		}
		if worst >= 0 {
			cal.Correct[c], cal.Predicted[c] = legs[worst].Counts(c)
		}
	}
	return cal
}

// calibrationConfidence is the Wilson confidence used when ranking holdout
// legs; the Advisor applies its own (configurable) confidence to the kept
// tallies at query time.
const calibrationConfidence = 0.95

// dataset builds the design matrix: transferable features against dominant
// outcome classes. The app id never enters the matrix.
func dataset(recs []Record) *ml.Dataset {
	ds := &ml.Dataset{Features: FeatureNames, Classes: Classes}
	for _, r := range recs {
		ds.X = append(ds.X, r.Vector())
		ds.Y = append(ds.Y, r.Dominant())
	}
	return ds
}

// Model file format: recfile lines like the feature store, but with the
// model's three parts as separate records so LoadModel can name exactly
// which part drifted.

type modelHeader struct {
	Kind     string   `json:"kind"` // "sense-model"
	Version  int      `json:"version"`
	Classes  int      `json:"classes"`
	Features []string `json:"features"`
	Apps     []string `json:"apps"`
	Records  int      `json:"records"`
}

type modelForest struct {
	Kind string          `json:"kind"` // "forest"
	Data json.RawMessage `json:"data"`
}

type modelCalibration struct {
	Kind      string `json:"kind"` // "calibration"
	Predicted []int  `json:"predicted"`
	Correct   []int  `json:"correct"`
}

type modelSupport struct {
	Kind string `json:"kind"` // "support"
	Support
}

// Save writes the model to path via a temporary file and rename, so a
// half-written model is never observed under the final path.
func (m *Model) Save(path string) error {
	data, err := m.encode()
	if err != nil {
		return err
	}
	if err := recfile.WriteFile(path, data); err != nil {
		return fmt.Errorf("sense model: %w", err)
	}
	return nil
}

func (m *Model) encode() ([]byte, error) {
	if m.Forest == nil || m.Cal == nil || m.Support == nil {
		return nil, fmt.Errorf("cannot encode an incomplete model")
	}
	forestData, err := m.Forest.Encode()
	if err != nil {
		return nil, fmt.Errorf("encoding sense model forest: %w", err)
	}
	return recfile.Marshal(
		modelHeader{Kind: "sense-model", Version: modelVersion,
			Classes: Classes, Features: FeatureNames, Apps: m.Apps, Records: m.Records},
		modelForest{Kind: "forest", Data: forestData},
		modelCalibration{Kind: "calibration", Predicted: m.Cal.Predicted, Correct: m.Cal.Correct},
		modelSupport{Kind: "support", Support: *m.Support})
}

// LoadModel reads and validates a model file, refusing schema drift — a
// version bump, a feature-schema change, a class-count change — with a
// descriptive error rather than mis-predicting, and never panicking on
// arbitrary input.
func LoadModel(path string) (*Model, error) {
	m := &Model{}
	torn, err := recfile.Load(path, "sense-model", m.fold)
	if err != nil {
		return nil, fmt.Errorf("sense model %w", err)
	}
	switch {
	case torn:
		// A model is written whole (Save), never appended to: a torn tail
		// is a truncated file, not a crash to repair.
		return nil, fmt.Errorf("sense model %s: truncated file (torn trailing line)", path)
	case m.Forest == nil:
		return nil, fmt.Errorf("sense model %s: missing forest record", path)
	case m.Cal == nil:
		return nil, fmt.Errorf("sense model %s: missing calibration record", path)
	case m.Support == nil:
		return nil, fmt.Errorf("sense model %s: missing support record", path)
	}
	return m, nil
}

// fold applies one model-file record to m.
func (m *Model) fold(rec recfile.Record) error {
	switch rec.Kind {
	case "sense-model":
		var h modelHeader
		if err := json.Unmarshal(rec.Payload, &h); err != nil {
			return fmt.Errorf("corrupt header: %w", err)
		}
		if h.Version != modelVersion {
			return fmt.Errorf("unsupported version %d (want %d) — model written by an incompatible build?", h.Version, modelVersion)
		}
		if h.Classes != Classes {
			return fmt.Errorf("model tallies %d outcome classes, this build has %d", h.Classes, Classes)
		}
		if err := sameFeatures(h.Features); err != nil {
			return err
		}
		m.Apps = h.Apps
		m.Records = h.Records
	case "forest":
		var fr modelForest
		if err := json.Unmarshal(rec.Payload, &fr); err != nil {
			return fmt.Errorf("corrupt forest record: %w", err)
		}
		forest, features, err := ml.DecodeForest(fr.Data)
		if err != nil {
			return err
		}
		if err := sameFeatures(features); err != nil {
			return err
		}
		if forest.Classes() != Classes {
			return fmt.Errorf("forest votes over %d classes, this build has %d", forest.Classes(), Classes)
		}
		m.Forest = forest
	case "calibration":
		var cal modelCalibration
		if err := json.Unmarshal(rec.Payload, &cal); err != nil {
			return fmt.Errorf("corrupt calibration record: %w", err)
		}
		if len(cal.Predicted) != Classes || len(cal.Correct) != Classes {
			return fmt.Errorf("calibration covers %d/%d classes, this build has %d", len(cal.Predicted), len(cal.Correct), Classes)
		}
		for c := 0; c < Classes; c++ {
			if cal.Predicted[c] < 0 || cal.Correct[c] < 0 || cal.Correct[c] > cal.Predicted[c] {
				return fmt.Errorf("impossible calibration tallies %d/%d for class %d", cal.Correct[c], cal.Predicted[c], c)
			}
		}
		m.Cal = &ml.Calibration{Predicted: cal.Predicted, Correct: cal.Correct}
	case "support":
		var sup modelSupport
		if err := json.Unmarshal(rec.Payload, &sup); err != nil {
			return fmt.Errorf("corrupt support record: %w", err)
		}
		if err := sup.Support.validate(); err != nil {
			return err
		}
		m.Support = &sup.Support
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// sameFeatures refuses a model whose feature schema differs from this
// build's — a reordered, renamed or resized column set would silently
// scramble every prediction.
func sameFeatures(features []string) error {
	if len(features) != len(FeatureNames) {
		return fmt.Errorf("model has %d feature columns, this build has %d (%v)", len(features), len(FeatureNames), FeatureNames)
	}
	for i, name := range features {
		if name != FeatureNames[i] {
			return fmt.Errorf("model feature column %d is %q, this build has %q", i, name, FeatureNames[i])
		}
	}
	return nil
}
