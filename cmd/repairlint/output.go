package main

import (
	"encoding/json"
	"io"

	"ftrepair/internal/analysis"
)

// SARIF 2.1.0 minimal model: one run, one tool driver with a rule per
// analyzer, one result per active finding. Enough for GitHub code-scanning
// annotation and for any SARIF viewer.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF renders the active findings as a SARIF 2.1.0 log.
func writeSARIF(w io.Writer, selected []*analysis.Analyzer, active []finding) error {
	rules := make([]sarifRule, 0, len(selected)+2)
	for _, a := range selected {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	// Synthetic rule ids the driver can emit besides analyzer findings.
	rules = append(rules,
		sarifRule{ID: "typecheck", ShortDescription: sarifMessage{Text: "package failed to type-check"}},
		sarifRule{ID: "lintdirective", ShortDescription: sarifMessage{Text: "malformed //lint:ignore directive"}},
	)
	results := make([]sarifResult, 0, len(active))
	for _, f := range active {
		line := f.Line
		if line < 1 {
			line = 1
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.File},
					Region:           sarifRegion{StartLine: line, StartColumn: f.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "repairlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
