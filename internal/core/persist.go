package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// Campaigns are expensive; persisting their results lets analyses (and the
// Fig. 6-style threshold replays) run long after the injection machines
// are gone. The JSON schema is versioned and flat so other tools can
// consume it.

// persistVersion identifies the on-disk schema.
const persistVersion = 1

type campaignJSON struct {
	Version int    `json:"version"`
	App     string `json:"app"`
	Ranks   int    `json:"ranks"`
	Policy  int    `json:"policy"`

	TotalPoints   int `json:"totalPoints"`
	AfterSemantic int `json:"afterSemantic"`
	AfterContext  int `json:"afterContext"`
	Injected      int `json:"injected"`
	PredictedN    int `json:"predicted"`

	SemanticReduction float64 `json:"semanticReduction"`
	ContextReduction  float64 `json:"contextReduction"`
	MLReduction       float64 `json:"mlReduction"`
	TotalReduction    float64 `json:"totalReduction"`
	VerifyAccuracy    float64 `json:"verifyAccuracy"`

	Measured    []pointResultJSON `json:"measured"`
	Predictions []predictionJSON  `json:"predictions,omitempty"`
	// SenseAdvised is omitted when empty so campaigns that never served a
	// zero-trial prediction keep the pre-sense byte layout.
	SenseAdvised []senseAdviceJSON `json:"senseAdvised,omitempty"`
}

type pointJSON struct {
	Rank        int    `json:"rank"`
	Site        uint64 `json:"site"`
	SiteName    string `json:"siteName"`
	Type        int32  `json:"collType"`
	Invocation  int    `json:"invocation"`
	StackHash   uint64 `json:"stackHash"`
	Phase       int32  `json:"phase"`
	ErrHandling bool   `json:"errHandling"`
	IsRoot      bool   `json:"isRoot"`
	NInv        int    `json:"nInv"`
	StackDepth  int    `json:"stackDepth"`
	NDiffStacks int    `json:"nDiffStacks"`
}

type trialJSON struct {
	Target  int `json:"target"`
	Bit     int `json:"bit"`
	Outcome int `json:"outcome"`
}

type pointResultJSON struct {
	Point  pointJSON   `json:"point"`
	Trials []trialJSON `json:"trials"`
}

type predictionJSON struct {
	Point pointJSON `json:"point"`
	Level int       `json:"level"`
}

type senseAdviceJSON struct {
	Point      pointJSON `json:"point"`
	Outcome    int       `json:"outcome"`
	Confidence float64   `json:"confidence"`
}

func pointToJSON(p Point) pointJSON {
	return pointJSON{
		Rank: p.Rank, Site: uint64(p.Site), SiteName: p.SiteName,
		Type: int32(p.Type), Invocation: p.Invocation, StackHash: p.StackHash,
		Phase: int32(p.Phase), ErrHandling: p.ErrHandling, IsRoot: p.IsRoot,
		NInv: p.NInv, StackDepth: p.StackDepth, NDiffStacks: p.NDiffStacks,
	}
}

func pointFromJSON(j pointJSON) Point {
	return Point{
		Rank: j.Rank, Site: uintptr(j.Site), SiteName: j.SiteName,
		Type: mpi.CollType(j.Type), Invocation: j.Invocation, StackHash: j.StackHash,
		Phase: mpi.Phase(j.Phase), ErrHandling: j.ErrHandling, IsRoot: j.IsRoot,
		NInv: j.NInv, StackDepth: j.StackDepth, NDiffStacks: j.NDiffStacks,
	}
}

func pointResultToJSON(pr PointResult) pointResultJSON {
	pj := pointResultJSON{Point: pointToJSON(pr.Point)}
	for _, tr := range pr.Trials {
		pj.Trials = append(pj.Trials, trialJSON{Target: int(tr.Target), Bit: tr.Bit, Outcome: int(tr.Outcome)})
	}
	return pj
}

// pointResultFromJSON decodes one point's results, validating every
// enum-valued field and every bit index so a corrupt or hand-edited file
// surfaces a descriptive error instead of poisoning downstream statistics.
// It is also the journal's decoder, where a recorded (target, bit, outcome)
// decides the outcome of the point's later trials of the same effective
// fault: bit is held to the range the engine draws from, as strictly as
// target and outcome are.
func pointResultFromJSON(pj pointResultJSON) (PointResult, error) {
	pr := PointResult{Point: pointFromJSON(pj.Point)}
	for i, tj := range pj.Trials {
		tr := TrialResult{Target: fault.Target(tj.Target), Bit: tj.Bit, Outcome: classify.Outcome(tj.Outcome)}
		if tr.Outcome < 0 || tr.Outcome >= classify.NumOutcomes {
			return PointResult{}, fmt.Errorf("trial %d: invalid outcome %d (valid range 0..%d)", i, tj.Outcome, int(classify.NumOutcomes)-1)
		}
		if tr.Target < 0 || tr.Target >= fault.NumTargets {
			return PointResult{}, fmt.Errorf("trial %d: invalid fault target %d (valid range 0..%d)", i, tj.Target, int(fault.NumTargets)-1)
		}
		if tr.Bit < 0 || tr.Bit >= fault.BitSpace {
			return PointResult{}, fmt.Errorf("trial %d: invalid fault bit %d (valid range 0..%d)", i, tj.Bit, fault.BitSpace-1)
		}
		pr.Trials = append(pr.Trials, tr)
		pr.Counts.Add(tr.Outcome)
	}
	return pr, nil
}

// WriteJSON serialises the campaign result.
func (r *CampaignResult) WriteJSON(w io.Writer) error {
	out := campaignJSON{
		Version: persistVersion,
		App:     r.AppName,
		Ranks:   r.Ranks,
		Policy:  int(r.Policy),

		TotalPoints:   r.TotalPoints,
		AfterSemantic: r.AfterSemantic,
		AfterContext:  r.AfterContext,
		Injected:      r.Injected,
		PredictedN:    r.PredictedN,

		SemanticReduction: r.SemanticReduction,
		ContextReduction:  r.ContextReduction,
		MLReduction:       r.MLReduction,
		TotalReduction:    r.TotalReduction,
		VerifyAccuracy:    r.VerifyAccuracy,
	}
	for _, pr := range r.Measured {
		out.Measured = append(out.Measured, pointResultToJSON(pr))
	}
	for _, p := range r.Predicted {
		out.Predictions = append(out.Predictions, predictionJSON{Point: pointToJSON(p.Point), Level: p.Level})
	}
	for _, a := range r.SenseAdvised {
		out.SenseAdvised = append(out.SenseAdvised, senseAdviceJSON{
			Point: pointToJSON(a.Point), Outcome: int(a.Outcome), Confidence: a.Confidence,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// SaveJSON writes the campaign result to a file.
func (r *CampaignResult) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteJSON(f)
}

// ReadCampaignJSON deserialises a campaign result written by WriteJSON. It
// fails with a descriptive error on truncated, corrupt or
// version-mismatched input rather than silently mis-loading it.
func ReadCampaignJSON(rd io.Reader) (*CampaignResult, error) {
	dec := json.NewDecoder(rd)
	var in campaignJSON
	switch err := dec.Decode(&in); {
	case err == io.EOF:
		return nil, fmt.Errorf("decoding campaign: empty input")
	case err == io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("decoding campaign: truncated JSON (file cut off mid-document?)")
	case err != nil:
		return nil, fmt.Errorf("decoding campaign: %w", err)
	}
	switch {
	case in.Version == 0:
		return nil, fmt.Errorf("campaign JSON has no version field — not a file written by SaveJSON?")
	case in.Version != persistVersion:
		return nil, fmt.Errorf("unsupported campaign schema version %d (want %d)", in.Version, persistVersion)
	}
	if dec.More() {
		return nil, fmt.Errorf("decoding campaign: trailing data after the campaign document")
	}
	if in.Policy < 0 || in.Policy > int(PolicyNetwork) {
		return nil, fmt.Errorf("campaign file has invalid fault policy %d (valid range 0..%d)", in.Policy, int(PolicyNetwork))
	}
	res := &CampaignResult{
		AppName: in.App,
		Ranks:   in.Ranks,
		Policy:  FaultPolicy(in.Policy),

		TotalPoints:   in.TotalPoints,
		AfterSemantic: in.AfterSemantic,
		AfterContext:  in.AfterContext,
		Injected:      in.Injected,
		PredictedN:    in.PredictedN,

		SemanticReduction: in.SemanticReduction,
		ContextReduction:  in.ContextReduction,
		MLReduction:       in.MLReduction,
		TotalReduction:    in.TotalReduction,
		VerifyAccuracy:    in.VerifyAccuracy,
	}
	for i, pj := range in.Measured {
		pr, err := pointResultFromJSON(pj)
		if err != nil {
			return nil, fmt.Errorf("campaign file measured[%d]: %w", i, err)
		}
		res.Measured = append(res.Measured, pr)
	}
	for _, pj := range in.Predictions {
		res.Predicted = append(res.Predicted, Prediction{Point: pointFromJSON(pj.Point), Level: pj.Level})
	}
	for i, aj := range in.SenseAdvised {
		if aj.Outcome < 0 || aj.Outcome >= int(classify.NumOutcomes) {
			return nil, fmt.Errorf("campaign file senseAdvised[%d]: invalid outcome %d (valid range 0..%d)",
				i, aj.Outcome, int(classify.NumOutcomes)-1)
		}
		if aj.Confidence < 0 || aj.Confidence >= 1 {
			return nil, fmt.Errorf("campaign file senseAdvised[%d]: confidence %v outside [0,1)", i, aj.Confidence)
		}
		res.SenseAdvised = append(res.SenseAdvised, SenseAdvice{
			Point: pointFromJSON(aj.Point), Outcome: classify.Outcome(aj.Outcome), Confidence: aj.Confidence,
		})
	}
	return res, nil
}

// LoadCampaignJSON reads a campaign result from a file, annotating decode
// failures with the file path.
func LoadCampaignJSON(path string) (*CampaignResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := ReadCampaignJSON(f)
	if err != nil {
		return nil, fmt.Errorf("loading campaign %s: %w", path, err)
	}
	return res, nil
}
