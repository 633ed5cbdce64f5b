package a

import (
	"net/http"
	"strconv"
	"time"
)

// handCount is the per-handler parsing the route's declared parameters
// replaced: each such block chose its own answer to a bad value.
func handCount(w http.ResponseWriter, r *http.Request) {
	k := 10
	if n, err := strconv.Atoi(r.URL.Query().Get("k")); err == nil { // want `strconv\.Atoi parses a request value` `\(\*net/url\.URL\)\.Query parses a request value`
		k = n
	}
	f, _ := strconv.ParseFloat("0.5", 64) // want `strconv\.ParseFloat parses a request value`
	d, _ := time.ParseDuration("25s")     // want `time\.ParseDuration parses a request value`
	_, _, _ = k, f, d
	_ = strconv.Itoa(k) // formatting is not parsing
}
