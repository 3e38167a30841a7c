package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Campaigns are expensive; persisting their results lets analyses (and the
// Fig. 6-style threshold replays) run long after the injection machines
// are gone. The JSON schema is versioned and flat so other tools can
// consume it.

// persistVersion identifies the on-disk schema.
const persistVersion = 1

// campaignFile is the campaign document: the result's own fields (its json
// tags are the schema) behind the schema version.
type campaignFile struct {
	Version int `json:"version"`
	*CampaignResult
}

// WriteJSON serialises the campaign result.
func (r *CampaignResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(campaignFile{persistVersion, r})
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
// version-mismatched input, and on a field this schema does not know,
// rather than silently mis-loading it.
func ReadCampaignJSON(rd io.Reader) (*CampaignResult, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	in := campaignFile{CampaignResult: &CampaignResult{}}
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
	res := in.CampaignResult
	if res.Policy < 0 || res.Policy > PolicyNetwork {
		return nil, fmt.Errorf("campaign file has invalid fault policy %d (valid range 0..%d)", res.Policy, PolicyNetwork)
	}
	for i := range res.Measured {
		if err := res.Measured[i].validate(); err != nil {
			return nil, fmt.Errorf("campaign file measured[%d]: %w", i, err)
		}
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
