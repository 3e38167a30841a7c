package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// maxBodyBytes bounds request bodies — a journal batch of checkpoint
// lines is small; anything bigger is malformed or hostile.
const maxBodyBytes = 64 << 20

// Handler serves one campaign's HTTP JSON API:
//
//	GET  /v1/campaign  campaign spec for zero-config workers
//	POST /v1/lease     lease the next index range
//	POST /v1/renew     extend a held lease
//	POST /v1/journal   stream a batch of completed records
//	GET  /v1/status    control-plane state
//	GET  /v1/events    SSE event feed (one EventFrame per message)
//
// A multi-campaign Service mounts these same endpoints per campaign under
// /v1/campaigns/{fp}/ (see Service.Handler).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	registerCampaignRoutes(mux, "/v1", func(r *http.Request) (*Coordinator, error) { return c, nil })
	return mux
}

// registerCampaignRoutes mounts the campaign endpoints under prefix,
// resolving the target coordinator per request (a fixed coordinator for
// the single-campaign API, a path-keyed lookup for the multi-campaign
// one). Resolution failures are served as 404s.
func registerCampaignRoutes(mux *http.ServeMux, prefix string, resolve func(*http.Request) (*Coordinator, error)) {
	with := func(h func(*Coordinator, http.ResponseWriter, *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			c, err := resolve(r)
			if err != nil {
				httpError(w, http.StatusNotFound, err)
				return
			}
			h(c, w, r)
		}
	}
	mux.HandleFunc("GET "+prefix+"/campaign", with((*Coordinator).handleCampaign))
	mux.HandleFunc("POST "+prefix+"/lease", with((*Coordinator).handleLease))
	mux.HandleFunc("POST "+prefix+"/renew", with((*Coordinator).handleRenew))
	mux.HandleFunc("POST "+prefix+"/journal", with((*Coordinator).handleJournal))
	mux.HandleFunc("GET "+prefix+"/status", with((*Coordinator).handleStatus))
	mux.HandleFunc("GET "+prefix+"/events", with((*Coordinator).serveEvents))
}

func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Spec())
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeLeaseRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	grant, err := c.Lease(req)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, grant)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeRenewRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, c.Renew(req))
}

func (c *Coordinator) handleJournal(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	batch, recs, quars, err := DecodeJournalBatch(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rep, err := c.Journal(batch, recs, quars)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, rep)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Status())
}

// subscriberBuffer is each SSE subscriber's frame-channel capacity: room
// for a burst of point events while the handler flushes; a subscriber that
// falls further behind has frames dropped and counted, never blocks the hub.
const subscriberBuffer = 256

// serveEvents streams the live event feed as server-sent events. Each
// frame is one message carrying its seq as the SSE `id:` field and the
// seq-numbered EventFrame envelope as `data:`. A subscriber that reads too
// slowly has frames dropped by the hub (visible as seq gaps and in
// /v1/status drop accounting) — the campaign never waits for it. A client
// reconnecting with a Last-Event-ID header is first replayed every
// retained frame after that seq, so a resumed feed is seq-gap-free. The
// handler owns no goroutines: it returns (and detaches the subscriber)
// when the client disconnects or the hub closes.
func (c *Coordinator) serveEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	afterSeq := -1
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("malformed Last-Event-ID %q: want a non-negative frame seq", v))
			return
		}
		afterSeq = n
	}
	sub, replay := c.hub.SubscribeFrom(afterSeq, subscriberBuffer)
	defer c.hub.Unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for _, frame := range replay {
		if err := writeSSEFrame(w, frame); err != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-sub.Frames():
			if !ok {
				return // hub closed
			}
			if err := writeSSEFrame(w, frame); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeSSEFrame renders one event frame as an SSE message, exposing the
// frame's seq as the event id so EventSource-style clients resume with
// Last-Event-ID automatically.
func writeSSEFrame(w io.Writer, frame []byte) error {
	if f, err := DecodeEventFrame(frame); err == nil {
		if _, err := fmt.Fprintf(w, "id: %d\n", f.Seq); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "data: %s\n\n", frame)
	return err
}

// readBody reads a request body of at most maxBodyBytes, or answers the
// request itself and reports false: 413 naming the limit for a larger body,
// which is refused whole rather than cut into a JSON syntax error, and 400
// for one that cannot be read.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d MiB limit", maxBodyBytes>>20))
	case err != nil:
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
	default:
		return data, true
	}
	return nil, false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("encoding reply: %w", err))
		return
	}
	w.Write(append(data, '\n'))
}

func httpError(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}
