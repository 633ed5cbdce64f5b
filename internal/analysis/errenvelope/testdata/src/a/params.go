package a

import (
	"net/http"
	"strconv"
	"time"
)

// queryInt is the parameter parser: params.go is the one file allowed to
// read and convert request values.
func queryInt(r *http.Request, name string) (int, error) {
	if _, err := time.ParseDuration("1s"); err != nil {
		return 0, err
	}
	return strconv.Atoi(r.URL.Query().Get(name))
}
