package store

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Handler serves a node's local store over the artifact protocol:
//
//	GET /artifact/{key} — the sealed envelope, 404 on miss,
//	                      412 on key-schema mismatch
//	PUT /artifact/{key} — verify and store a peer's envelope
//
// GETs re-seal the verified payload (so the response envelope's sum
// is always freshly computed); PUTs re-open the received envelope (so
// a peer can never push an entry that fails verification). Schema
// negotiation is a header check on both verbs: mixed-version nodes
// refuse each other instead of trading stale entries.
type Handler struct {
	local  Store
	schema int
}

// NewHandler mounts s (a node's local tier — not its read-through
// view, which would recurse through peers) behind the artifact
// protocol at the given key schema.
func NewHandler(s Store, schema int) *Handler {
	return &Handler{local: s, schema: schema}
}

// ServeHTTP implements the protocol; see the type comment.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, ArtifactPath)
	if key == r.URL.Path { // mounted elsewhere; take the last segment
		if i := strings.LastIndexByte(r.URL.Path, '/'); i >= 0 {
			key = r.URL.Path[i+1:]
		}
	}
	if !ValidKey(key) {
		http.Error(w, "store: invalid artifact key", http.StatusBadRequest)
		return
	}
	if s := r.Header.Get(SchemaHeader); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n != h.schema {
			w.Header().Set(SchemaHeader, strconv.Itoa(h.schema))
			http.Error(w, "store: key-schema mismatch", http.StatusPreconditionFailed)
			return
		}
	}
	switch r.Method {
	case http.MethodGet:
		payload, ok, _ := h.local.Get(r.Context(), key)
		if !ok {
			http.Error(w, "store: artifact not found", http.StatusNotFound)
			return
		}
		raw, err := Seal(h.schema, key, payload)
		if err != nil {
			http.Error(w, "store: seal: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(SchemaHeader, strconv.Itoa(h.schema))
		w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
		w.Write(raw)
	case http.MethodPut:
		raw, err := io.ReadAll(io.LimitReader(r.Body, maxArtifactBytes+1))
		if err != nil {
			http.Error(w, "store: read: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(raw) > maxArtifactBytes {
			http.Error(w, "store: artifact too large", http.StatusRequestEntityTooLarge)
			return
		}
		payload, err := Open(h.schema, key, raw)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrSchema) {
				code = http.StatusPreconditionFailed
			}
			http.Error(w, err.Error(), code)
			return
		}
		if err := h.local.Put(r.Context(), key, payload); err != nil {
			http.Error(w, "store: put: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "store: GET or PUT only", http.StatusMethodNotAllowed)
	}
}
