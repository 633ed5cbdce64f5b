package main

import (
	"fmt"
	"math/rand"

	"repro/internal/smr"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// Corpus shape shared by every workload: workload.BuildCorpus at 5,000
// sensors with one tag each (deployments scale with the sensor count), plus the ingest workload's bounded title pool
// (written once at set-up, so ingest only ever overwrites pages and every
// run ends with the same number of pages and rows).
const (
	corpusSites       = 15
	corpusDeployments = 300
	corpusSensors     = 5000
	corpusTags        = 1
	poolSize          = 128
	loadBatch         = 256
)

// tagWrite is one tag assignment of the corpus.
type tagWrite struct {
	Page string `json:"page"`
	Tag  string `json:"tag"`
}

// corpus is the generated input the set-up loads: pages in load order and
// tag assignments. userBytes counts the title and text bytes written.
type corpus struct {
	pages       []smr.PageWrite
	tags        []tagWrite
	deployments []string // deployment titles, for ingest link changes
	pool        []string // ingest title pool
	poolDeps    []string // each pool page's deployment at set-up
	userBytes   int64
}

// buildCorpus generates the seeded corpus. workload.BuildCorpus writes into
// a repository, so it runs against a throw-away in-memory one and the pages
// and tags are read back out in a fixed order: the benchmarked system only
// ever receives them through its write path.
func buildCorpus(seed int64, sensors int) (*corpus, error) {
	gen, err := smr.New()
	if err != nil {
		return nil, err
	}
	opts := workload.CorpusOptions{
		Sites: corpusSites, Deployments: max(1, sensors*corpusDeployments/corpusSensors), Sensors: sensors,
		Seed: seed, TagsPerSensor: corpusTags,
	}
	if _, err := workload.BuildCorpus(gen, opts); err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	c := &corpus{}
	for _, ns := range []wiki.Namespace{"Fieldsite", "Deployment", "Sensor"} {
		for _, title := range gen.Wiki.PagesInNamespace(ns) {
			p, _ := gen.Wiki.Get(title)
			c.addPage(smr.PageWrite{Title: title, Author: "generator", Text: p.Text(), Comment: "corpus"})
			if ns == "Deployment" {
				c.deployments = append(c.deployments, title)
			}
		}
	}
	// Tags in (page, tag) order, one assignment per distinct pair.
	rs, err := gen.QuerySQL("SELECT DISTINCT page, tag FROM tags ORDER BY page, tag")
	if err != nil {
		return nil, err
	}
	for _, row := range rs.Rows {
		c.tags = append(c.tags, tagWrite{Page: row[0].Text0(), Tag: row[1].Text0()})
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < poolSize; i++ {
		title := fmt.Sprintf("Sensor:ingest-%03d", i)
		dep := c.deployments[rng.Intn(len(c.deployments))]
		c.pool = append(c.pool, title)
		c.poolDeps = append(c.poolDeps, dep)
		c.addPage(smr.PageWrite{Title: title, Author: "generator", Comment: "corpus",
			Text: ingestText(rng, dep, "r0")})
	}
	return c, nil
}

func (c *corpus) addPage(w smr.PageWrite) {
	c.pages = append(c.pages, w)
	c.userBytes += int64(len(w.Title) + len(w.Text))
}

var (
	measurands = []string{
		"temperature", "wind speed", "wind direction", "humidity",
		"snow height", "solar radiation", "soil moisture", "pressure",
		"precipitation", "discharge",
	}
	statuses     = []string{"active", "maintenance", "retired"}
	institutions = []string{"EPFL", "WSL", "SLF", "ETHZ", "UniBas", "MeteoSwiss"}
	siteNames    = []string{
		"Wannengrat", "Davos", "Zermatt", "Grimsel", "Jungfraujoch",
		"Rietholzbach", "Lago Bianco", "Piora", "Dischma", "Gemmi",
	}
)

// ingestText renders one revision of an ingest-pool page. rev is a token
// unique to the write, so a search for it finds exactly the revision that
// carries it.
func ingestText(rng *rand.Rand, deployment, rev string) string {
	m := measurands[rng.Intn(len(measurands))]
	return fmt.Sprintf(
		"An ingested %s sensor of [[%s]].\n[[partOf::%s]]\n[[measures::%s]]\n[[samplingRate::%d]]\n[[status::%s]]\n[[ingestrev::%s]]\n[[Category:Sensors]]\n",
		m, deployment, deployment, m, []int{1, 10, 60, 600}[rng.Intn(4)],
		statuses[rng.Intn(len(statuses))], rev)
}
