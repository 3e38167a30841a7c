package fault

import (
	"fmt"
	"strconv"

	"github.com/fastfit/fastfit/internal/mpi"
)

// Config mirrors the environment-variable interface of the paper's FastFIT
// implementation (Table II). The Config Generation module reads these
// variables at runtime and drives the Fault Injection module.
//
//	NUM_INJ   number of injected faults            (width: unlimited)
//	INV_ID    id of the injected invocation        (width: 3)
//	CALL_ID   id of the injected MPI collective    (width: 3)
//	RANK_ID   id of the injected rank              (width: unlimited)
//	PARAM_ID  id of the injected parameter         (width: 1)
type Config struct {
	NumInj  int
	InvID   int
	CallID  int
	RankID  int
	ParamID int
}

// Environment-variable names, matching Table II of the paper.
const (
	EnvNumInj  = "NUM_INJ"
	EnvInvID   = "INV_ID"
	EnvCallID  = "CALL_ID"
	EnvRankID  = "RANK_ID"
	EnvParamID = "PARAM_ID"
)

// Field widths from Table II (digits); zero means unlimited.
const (
	WidthNumInj  = 0
	WidthInvID   = 3
	WidthCallID  = 3
	WidthRankID  = 0
	WidthParamID = 1
)

// ParseConfig reads the Table II variables through getenv (typically
// os.Getenv). Unset variables default to zero; set variables must be
// non-negative integers within their declared width.
func ParseConfig(getenv func(string) string) (Config, error) {
	var c Config
	fields := []struct {
		env   string
		width int
		dst   *int
	}{
		{EnvNumInj, WidthNumInj, &c.NumInj},
		{EnvInvID, WidthInvID, &c.InvID},
		{EnvCallID, WidthCallID, &c.CallID},
		{EnvRankID, WidthRankID, &c.RankID},
		{EnvParamID, WidthParamID, &c.ParamID},
	}
	for _, f := range fields {
		s := getenv(f.env)
		if s == "" {
			continue
		}
		if f.width > 0 && len(s) > f.width {
			return c, fmt.Errorf("%s=%q exceeds width %d", f.env, s, f.width)
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return c, fmt.Errorf("%s=%q is not an integer: %v", f.env, s, err)
		}
		if v < 0 {
			return c, fmt.Errorf("%s=%d must be non-negative", f.env, v)
		}
		*f.dst = v
	}
	return c, nil
}

// Faults expands the config into concrete faults against a site table
// (CALL_ID indexes sites in profiling order) using rng for the per-fault
// bit positions. The parameter id indexes the target list of the site's
// collective type.
func (c Config) Faults(sites []SiteRef, rng interface{ Intn(int) int }) ([]Fault, error) {
	if c.NumInj <= 0 {
		return nil, nil
	}
	if c.CallID >= len(sites) {
		return nil, fmt.Errorf("CALL_ID=%d out of range (have %d sites)", c.CallID, len(sites))
	}
	ref := sites[c.CallID]
	targets := TargetsFor(ref.Type)
	if c.ParamID >= len(targets) {
		return nil, fmt.Errorf("PARAM_ID=%d out of range for %v (have %d params)", c.ParamID, ref.Type, len(targets))
	}
	out := make([]Fault, 0, c.NumInj)
	for i := 0; i < c.NumInj; i++ {
		out = append(out, Fault{
			Rank:       c.RankID,
			Site:       ref.Site,
			Invocation: c.InvID,
			Target:     targets[c.ParamID],
			Bit:        rng.Intn(BitSpace),
		})
	}
	return out, nil
}

// SiteRef pairs a call-site PC with its collective type, the unit CALL_ID
// addresses.
type SiteRef struct {
	Site uintptr
	Type mpi.CollType
}
