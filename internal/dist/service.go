package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/fastfit/fastfit/internal/core"
)

// Service multiplexes any number of campaigns onto one control-plane
// process: a registry of coordinators keyed by campaign fingerprint, each
// with its own WAL subdirectory under the service store, served under
// /v1/campaigns/{fp}/ beside the single-campaign /v1/ paths (which keep
// working whenever exactly one campaign is open). `ffd serve -store DIR`
// builds one of these and reopens every unfinished campaign on restart.
type Service struct {
	store  string // durable state root; "" disables persistence
	lookup AppLookup

	mu    sync.Mutex
	camps map[string]*Coordinator
}

// NewService builds an empty campaign registry. store is the durable state
// root (each campaign gets store/<fingerprint>/wal.jsonl); empty keeps
// every campaign in-memory only. lookup resolves app names during
// recovery.
func NewService(store string, lookup AppLookup) *Service {
	return &Service{store: store, lookup: lookup, camps: map[string]*Coordinator{}}
}

// Store returns the service's durable state root ("" when in-memory).
func (s *Service) Store() string { return s.store }

// CampaignDir returns the durable state directory a campaign fingerprint
// maps to ("" when the service is in-memory).
func (s *Service) CampaignDir(fp string) string {
	if s.store == "" {
		return ""
	}
	return filepath.Join(s.store, fp)
}

// Coordinator returns the open campaign with the given fingerprint.
func (s *Service) Coordinator(fp string) (*Coordinator, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.camps[fp]
	return c, ok
}

// Campaigns returns every open coordinator, ordered by fingerprint.
func (s *Service) Campaigns() []*Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Coordinator, 0, len(s.camps))
	for _, c := range s.camps {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec().Fingerprint < out[j].Spec().Fingerprint })
	return out
}

// Open plans the engine's campaign and registers it: an unfinished WAL
// already in the store for the same fingerprint is recovered (recovered
// reports which path was taken), otherwise a fresh campaign (and, with a
// store, a fresh WAL) is opened. Opening a fingerprint that is already
// registered returns the existing coordinator.
func (s *Service) Open(eng *core.Engine, opts CoordinatorOptions) (c *Coordinator, recovered bool, err error) {
	info, err := eng.PlanInfo()
	if err != nil {
		return nil, false, fmt.Errorf("planning campaign: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.camps[info.Fingerprint]; ok {
		return existing, false, nil
	}
	if dir := s.CampaignDir(info.Fingerprint); dir != "" {
		opts.Store = dir
		if _, statErr := os.Stat(filepath.Join(dir, WALFileName)); statErr == nil {
			c, err = RecoverCoordinator(dir, s.lookup, opts)
			recovered = true
		} else {
			c, err = NewCoordinator(eng, opts)
		}
	} else {
		c, err = NewCoordinator(eng, opts)
	}
	if err != nil {
		return nil, false, err
	}
	s.camps[c.Spec().Fingerprint] = c
	return c, recovered, nil
}

// ReopenAll scans the store for campaign WALs not already registered and
// recovers every unfinished one; campaigns that already merged are
// skipped. optsFor supplies each recovered campaign's coordinator options
// (nil uses zero options — sensible defaults everywhere). Returns the
// newly recovered coordinators, ordered by fingerprint.
func (s *Service) ReopenAll(optsFor func(fp string) CoordinatorOptions) ([]*Coordinator, error) {
	if s.store == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.store)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("scanning store %s: %w", s.store, err)
	}
	var reopened []*Coordinator
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		fp := ent.Name()
		dir := filepath.Join(s.store, fp)
		if _, err := os.Stat(filepath.Join(dir, WALFileName)); err != nil {
			continue
		}
		s.mu.Lock()
		_, open := s.camps[fp]
		s.mu.Unlock()
		if open {
			continue
		}
		var opts CoordinatorOptions
		if optsFor != nil {
			opts = optsFor(fp)
		}
		c, err := RecoverCoordinator(dir, s.lookup, opts)
		if errors.Is(err, ErrCampaignMerged) {
			continue
		}
		if err != nil {
			return reopened, fmt.Errorf("reopening campaign %s: %w", fp, err)
		}
		if got := c.Spec().Fingerprint; got != fp {
			c.Hub().Close()
			return reopened, fmt.Errorf("reopening campaign %s: wal in %s belongs to campaign %s", fp, dir, got)
		}
		s.mu.Lock()
		s.camps[fp] = c
		s.mu.Unlock()
		reopened = append(reopened, c)
	}
	sort.Slice(reopened, func(i, j int) bool { return reopened[i].Spec().Fingerprint < reopened[j].Spec().Fingerprint })
	return reopened, nil
}

// sole resolves the compatibility single-campaign routes: they address
// "the" campaign, which is only well-defined while exactly one is open.
func (s *Service) sole() (*Coordinator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch len(s.camps) {
	case 1:
		for _, c := range s.camps {
			return c, nil
		}
		panic("unreachable")
	case 0:
		return nil, fmt.Errorf("no campaign open on this coordinator")
	default:
		fps := make([]string, 0, len(s.camps))
		for fp := range s.camps {
			fps = append(fps, fp)
		}
		sort.Strings(fps)
		return nil, fmt.Errorf("%d campaigns open — address one via /v1/campaigns/{fingerprint}/ (open: %s)",
			len(fps), strings.Join(fps, ", "))
	}
}

// Handler serves the multi-campaign HTTP API:
//
//	GET /v1/campaigns                 registry listing (CampaignsReply)
//	    /v1/campaigns/{fp}/...        one campaign's full API (see
//	                                  Coordinator.Handler for the routes)
//	    /v1/...                       single-campaign compatibility paths,
//	                                  valid while exactly one campaign is
//	                                  open
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.campaignsReply())
	})
	mux.HandleFunc("GET /v1/campaigns/{$}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.campaignsReply())
	})
	registerCampaignRoutes(mux, "/v1/campaigns/{fp}", func(r *http.Request) (*Coordinator, error) {
		fp := r.PathValue("fp")
		c, ok := s.Coordinator(fp)
		if !ok {
			open := make([]string, 0)
			for _, oc := range s.Campaigns() {
				open = append(open, oc.Spec().Fingerprint)
			}
			if len(open) == 0 {
				return nil, fmt.Errorf("campaign %s not open on this coordinator (no campaigns open)", fp)
			}
			return nil, fmt.Errorf("campaign %s not open on this coordinator (open: %s)", fp, strings.Join(open, ", "))
		}
		return c, nil
	})
	registerCampaignRoutes(mux, "/v1", func(r *http.Request) (*Coordinator, error) { return s.sole() })
	return mux
}

// Shutdown stops srv, which serves s's Handler, once the shards have heard
// the end: it keeps answering until every worker that asked a campaign for
// a lease has been told that campaign is finished, for at most the longest
// lease TTL (a shard that died asks no more), then ends the event feeds and
// shuts srv down, letting the replies in flight finish. Closing sooner
// leaves a shard that is polling for work retrying a closed port.
func (s *Service) Shutdown(ctx context.Context, srv *http.Server) error {
	camps := s.Campaigns()
	var ttl time.Duration
	for _, c := range camps {
		ttl = max(ttl, c.opts.LeaseTTL)
	}
	wait, cancel := context.WithTimeout(ctx, ttl)
	defer cancel()
	for _, c := range camps {
		select {
		case <-c.drained:
		case <-wait.Done():
		}
	}
	for _, c := range camps {
		c.hub.Close()
	}
	return srv.Shutdown(ctx)
}

// campaignsReply snapshots the registry for the /v1/campaigns listing.
func (s *Service) campaignsReply() CampaignsReply {
	rep := CampaignsReply{Store: s.store, Campaigns: []CampaignInfo{}}
	for _, c := range s.Campaigns() {
		st := c.Status()
		rep.Campaigns = append(rep.Campaigns, CampaignInfo{
			Fingerprint: st.Fingerprint,
			App:         st.App,
			Points:      st.Points,
			Recorded:    st.Recorded,
			Quarantined: st.Quarantined,
			Complete:    st.Complete,
			Merged:      st.Merged,
			Epoch:       st.Epoch,
		})
	}
	return rep
}
