// Package a is the errenvelope fixture: handlers emitting errors outside
// the structured envelope. Before the envelope was unified the legacy
// routes spoke text/plain while /api/v1 spoke {"error":{...}}, and
// clients could not branch on a code — the exact drift this analyzer
// pins shut.
package a

import (
	"encoding/json"
	"net/http"
)

type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeEnvelope is the canonical construction site: a named struct, not
// an ad-hoc map, so the analyzer leaves it alone.
func writeEnvelope(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var e envelope
	e.Error.Code = code
	e.Error.Message = message
	json.NewEncoder(w).Encode(e)
}

// plainTextHistorical is the legacy-route pattern the burn-down removed.
func plainTextHistorical(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), http.StatusBadRequest) // want `http\.Error emits unstructured text/plain`
}

// plainNotFound is the catch-all 404 the envelope replaced.
func plainNotFound(w http.ResponseWriter, r *http.Request) {
	http.NotFound(w, r) // want `http\.NotFound emits unstructured text/plain`
}

// adHocMap forks the envelope shape.
func adHocMap(w http.ResponseWriter, err error) {
	json.NewEncoder(w).Encode(map[string]any{
		"error": err.Error(), // want `ad-hoc error envelope map`
	})
}

// okPayloads with other keys are untouched.
func okPayloads(w http.ResponseWriter) {
	json.NewEncoder(w).Encode(map[string]any{"results": nil, "total": 0})
}
