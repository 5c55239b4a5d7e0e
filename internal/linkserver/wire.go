package linkserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"

	"genlink/internal/entity"
	"genlink/internal/matching"
)

// The client wire contract: the JSON shapes and request-parsing rules a
// node serves, the router serves unchanged to its own clients, and the
// router decodes when it talks to a node. Both tiers import this file,
// so drift between them is a compile error.

// maxEntityBody caps the body of POST /entities and POST /match.
const maxEntityBody = 16 << 20

// MatchResponse is the JSON shape of both match endpoints.
type MatchResponse struct {
	Query string      `json:"query"`
	K     int         `json:"k"`
	Links []MatchLink `json:"links"`
}

// MatchLink is one scored match of a MatchResponse.
type MatchLink struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// ToMatchResponse renders the links of a query for probe ID query. Links
// is never null in the JSON: no match is "links": [].
func ToMatchResponse(query string, k int, links []matching.Link) MatchResponse {
	resp := MatchResponse{Query: query, K: k, Links: make([]MatchLink, 0, len(links))}
	for _, l := range links {
		resp.Links = append(resp.Links, MatchLink{ID: l.BID, Score: l.Score})
	}
	return resp
}

// EntitiesAck acknowledges a POST /entities batch: Added counts distinct
// IDs upserted, Entities is the corpus size afterwards.
type EntitiesAck struct {
	Added    int `json:"added"`
	Entities int `json:"entities"`
}

// ErrorBody is the envelope of every non-2xx JSON response. Leader is
// set only on an unpromoted replica's 403: where writes must go.
type ErrorBody struct {
	Error  string `json:"error"`
	Leader string `json:"leader,omitempty"`
}

// NodeMetrics is the body of a node's GET /metrics: monotonic counters
// plus point-in-time gauges. Every key is always present — zero without
// -wal-dir; role "leader", zero lag and an empty last_error on a
// non-replica — so dashboards
// and the router's membership poll can rely on them. Fields are in the
// byte order of their keys, the order the endpoint has always emitted.
type NodeMetrics struct {
	AppliedSeq          uint64           `json:"applied_seq"`     // last WAL record logged and applied
	BackfillActive      bool             `json:"backfill_active"` // a bulk-backfill session is open
	Backfilled          int64            `json:"backfilled"`      // entities upserted through backfill sessions
	Deletes             int64            `json:"deletes"`
	Entities            int              `json:"entities"`
	Keys                int              `json:"keys"`
	LastError           string           `json:"last_error"` // a follower's most recent tailing error, "" once it tails again
	LastRecoveryMs      float64          `json:"last_recovery_ms"`
	Leader              string           `json:"leader"` // upstream address while Role is "follower"
	Queries             int64            `json:"queries"`
	QueryLatencyBuckets map[string]int64 `json:"query_latency_buckets"` // Histogram over both match endpoints
	ReplicaLagMs        int64            `json:"replica_lag_ms"`
	ReplicaLagRecords   uint64           `json:"replica_lag_records"`
	Role                string           `json:"role"` // "leader" or "follower"
	ShardEntities       []int            `json:"shard_entities"`
	Shards              int              `json:"shards"`
	Snapshots           int64            `json:"snapshots"`
	StreamEarlyExits    int64            `json:"stream_early_exits"` // per-shard queries answered without enumerating a candidate
	WALRecords          uint64           `json:"wal_records"`
	WALSegments         int              `json:"wal_segments"`
	WALSnapshotSeq      uint64           `json:"wal_snapshot_seq"`
	Writes              int64            `json:"writes"` // entities upserted
}

// DecodeEntities accepts `{...}` or `[{...}, ...]` bodies, decoded by
// entity.DecodeJSON and entity.DecodeJSONList, and validates that every
// entity carries an id. The ResponseWriter lets
// MaxBytesReader close the connection on overrun; the caller maps the
// resulting *http.MaxBytesError to 413 via WriteDecodeError.
func DecodeEntities(w http.ResponseWriter, r *http.Request) ([]*entity.Entity, error) {
	return decodeBody(w, r, entity.DecodeJSONList, entity.DecodeJSON, func(e *entity.Entity) string {
		if e == nil {
			return ""
		}
		return e.ID
	})
}

// DecodeEncoded is DecodeEntities giving each entity with its canonical
// bytes (entity.DecodeEncodedList and entity.DecodeEncoded): how a node
// reads the entities it stores, and the router the ones it forwards.
func DecodeEncoded(w http.ResponseWriter, r *http.Request) ([]entity.Encoded, error) {
	return decodeBody(w, r, entity.DecodeEncodedList, entity.DecodeEncoded, func(e entity.Encoded) string { return e.ID() })
}

// decodeBody reads an entity body, decoded by list when it is an array
// and by one otherwise, and validates that every entity carries an id
// (id reads it; a null entity has none).
func decodeBody[T any](w http.ResponseWriter, r *http.Request, list func([]byte) ([]T, error), one func([]byte) (T, error), id func(T) string) ([]T, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntityBody))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	var entities []T
	if first := firstNonSpace(body); first == '[' {
		if entities, err = list(body); err != nil {
			return nil, fmt.Errorf("invalid entity array: %w", err)
		}
	} else {
		e, err := one(body)
		if err != nil {
			return nil, fmt.Errorf("invalid entity: %w", err)
		}
		entities = append(entities, e)
	}
	for _, e := range entities {
		if id(e) == "" {
			return nil, errors.New(`every entity needs a non-empty "id"`)
		}
	}
	return entities, nil
}

// firstNonSpace returns the first non-whitespace byte of b, or 0.
func firstNonSpace(b []byte) byte {
	for _, c := range b {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		}
		return c
	}
	return 0
}

// WriteDecodeError maps a body-decoding failure to its status: an
// oversized body (MaxBytesReader tripped) is 413, everything else 400.
func WriteDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
		return
	}
	WriteError(w, http.StatusBadRequest, err)
}

// ParseK reads the k parameter: absent means def, 0 is the documented
// "every link above the threshold", negative is a client error.
func ParseK(r *http.Request, def int) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return def, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 0 {
		return 0, fmt.Errorf("invalid k %q (want 0 for all links, or a positive count)", raw)
	}
	return k, nil
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

// WriteError answers status with err in the ErrorBody envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorBody{Error: err.Error()})
}
