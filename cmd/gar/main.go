// Command gar translates natural-language questions to SQL for a
// user-provided database using the GAR generate-and-rank pipeline.
//
// The database, sample queries, training examples and (optional) content
// come from a JSON spec file:
//
//	{
//	  "database": {
//	    "name": "company",
//	    "tables": [{
//	      "name": "employee", "annotation": "employee",
//	      "primaryKey": ["employee_id"],
//	      "columns": [
//	        {"name": "employee_id", "nl": "employee id", "type": "number"},
//	        {"name": "name", "nl": "name", "type": "text"}
//	      ]}],
//	    "foreignKeys": [{"fromTable": "...", "fromColumn": "...",
//	                     "toTable": "...", "toColumn": "..."}],
//	    "joinAnnotations": [{"tables": [...], "description": "...",
//	      "tableKeys": "...", "conditions": [{"leftTable": "...", ...}]}]
//	  },
//	  "samples": ["SELECT name FROM employee WHERE age > 30"],
//	  "examples": [{"question": "...", "sql": "..."}],
//	  "content": {"employee": [[1, "George", 45]]}
//	}
//
// Usage:
//
//	gar -spec db.json -q "who is the oldest employee"
//	gar -spec db.json            # interactive: one question per line
//	gar -demo -q "how many employees are there"
//	gar serve -demo -addr :8765  # HTTP JSON API, one tenant named default (see serve.go)
//	gar serve -spec db.json -statedir /var/lib/gar   # durable checkpoints + warm start
//	gar serve -specdir specs/ -statedir /var/lib/gar -maxtenants 16   # one tenant per specs/{tenant}.json
//	gar lint -spec db.json queries.sql   # semantic SQL checks (see lint.go)
//	gar lint -demo -pool 500 -o json     # lint a generated candidate pool
//	gar checkpoint list -statedir /var/lib/gar   # inspect/verify/prune state (see checkpoint.go)
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/gar"
)

type spec struct {
	Database struct {
		Name   string `json:"name"`
		Tables []struct {
			Name       string   `json:"name"`
			Annotation string   `json:"annotation"`
			PrimaryKey []string `json:"primaryKey"`
			Columns    []struct {
				Name string `json:"name"`
				NL   string `json:"nl"`
				Type string `json:"type"`
			} `json:"columns"`
		} `json:"tables"`
		ForeignKeys []struct {
			FromTable  string `json:"fromTable"`
			FromColumn string `json:"fromColumn"`
			ToTable    string `json:"toTable"`
			ToColumn   string `json:"toColumn"`
		} `json:"foreignKeys"`
		JoinAnnotations []struct {
			Tables      []string `json:"tables"`
			Description string   `json:"description"`
			TableKeys   string   `json:"tableKeys"`
			Conditions  []struct {
				LeftTable   string `json:"leftTable"`
				LeftColumn  string `json:"leftColumn"`
				RightTable  string `json:"rightTable"`
				RightColumn string `json:"rightColumn"`
			} `json:"conditions"`
		} `json:"joinAnnotations"`
	} `json:"database"`
	Samples  []string `json:"samples"`
	Examples []struct {
		Question string `json:"question"`
		SQL      string `json:"sql"`
	} `json:"examples"`
	Content map[string][][]any `json:"content"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		os.Exit(runLint(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "checkpoint" {
		os.Exit(runCheckpoint(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "feedback" {
		os.Exit(runFeedback(os.Args[2:], os.Stdout, os.Stderr))
	}
	specPath := flag.String("spec", "", "path to the JSON database spec")
	question := flag.String("q", "", "question to translate (omit for interactive mode)")
	demo := flag.Bool("demo", false, "use the built-in employee demo database")
	topK := flag.Int("top", 3, "number of alternatives to display")
	garJ := flag.Bool("j", false, "enable GAR-J (use join annotations)")
	pool := flag.Int("pool", 2000, "generalized candidate pool size")
	saveModels := flag.String("savemodels", "", "save trained ranking models to this file")
	loadModels := flag.String("loadmodels", "", "load ranking models instead of training")
	flag.Parse()

	s, err := loadSpec(*specPath, *demo)
	if err != nil {
		fatal(err)
	}

	// Spec workloads have few training examples, so train longer than
	// the benchmark defaults.
	sys, content, models, err := buildSystemModels(s, gar.Options{
		GeneralizeSize:  *pool,
		JoinAnnotations: *garJ,
		Seed:            1,
		EncoderEpochs:   14,
		RerankEpochs:    40,
	}, *loadModels)
	if err != nil {
		fatal(err)
	}
	if *saveModels != "" {
		if err := models.SaveFile(*saveModels); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "models saved to %s\n", *saveModels)
	}
	fmt.Fprintf(os.Stderr, "prepared %d candidate queries; models trained\n", sys.PoolSize())

	translate := func(q string) {
		// -top counts the answer itself, which is always shown.
		res, err := sys.TranslateTopContext(context.Background(), q, max(*topK, 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		fmt.Printf("SQL:     %s\nDialect: %s\n", res.SQL, res.Dialect)
		for i := 1; i < len(res.Candidates); i++ {
			fmt.Printf("alt %d:   %s\n", i, res.Candidates[i].SQL)
		}
		if content != nil {
			if rows, err := content.Query(res.SQL); err == nil {
				fmt.Printf("Rows:    %v\n", rows)
			}
		}
	}

	if *question != "" {
		translate(*question)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(os.Stderr, "gar> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == "exit" || line == "quit" {
			break
		}
		translate(line)
		fmt.Fprint(os.Stderr, "gar> ")
	}
}

// loadSpec resolves the -spec/-demo flags to a validated spec.
func loadSpec(specPath string, demo bool) (*spec, error) {
	var s *spec
	switch {
	case demo:
		s = demoSpec()
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		s = &spec{}
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", specPath, err)
		}
	default:
		return nil, fmt.Errorf("provide -spec file.json or -demo")
	}
	return s, nil
}

// specBase is the spec's corpus in the shape the online trainer folds
// feedback into.
func specBase(s *spec) gar.BaseData {
	base := gar.BaseData{Samples: s.Samples}
	for _, ex := range s.Examples {
		base.Examples = append(base.Examples, gar.Example{Question: ex.Question, SQL: ex.SQL})
	}
	return base
}

// buildSystem assembles, prepares and deploys a system from the spec.
func buildSystem(s *spec, opts gar.Options, loadModels string) (*gar.System, *gar.Content, error) {
	sys, content, _, err := buildSystemModels(s, opts, loadModels)
	return sys, content, err
}

// buildSystemModels is buildSystem, additionally returning the deployed
// models (loaded from loadModels, or trained on the spec's examples) so
// callers can persist them.
func buildSystemModels(s *spec, opts gar.Options, loadModels string) (*gar.System, *gar.Content, *gar.Models, error) {
	if err := validateSpec(s); err != nil {
		return nil, nil, nil, err
	}
	sys, content, err := newSystem(s, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	models, err := deploySystem(sys, s, opts, loadModels)
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, content, models, nil
}

// newSystem assembles the database schema, system and content from the
// spec without preparing or training anything: the shared front half of
// a cold build and a checkpoint warm start (where the pool and models
// come from the state directory instead).
func newSystem(s *spec, opts gar.Options) (*gar.System, *gar.Content, error) {
	if err := validateSpecSchema(s); err != nil {
		return nil, nil, err
	}
	db := garDatabase(s)
	sys, err := gar.New(db, opts)
	if err != nil {
		return nil, nil, err
	}
	content, err := specContent(s, db)
	if err != nil {
		return nil, nil, err
	}
	if content != nil {
		sys.SetContent(content)
	}
	return sys, content, nil
}

// garDatabase builds the spec's database through the public API.
func garDatabase(s *spec) *gar.Database {
	db := gar.NewDatabase(s.Database.Name)
	for _, t := range s.Database.Tables {
		tableOpts := []any{gar.Key(t.PrimaryKey...)}
		if t.Annotation != "" {
			tableOpts = append(tableOpts, gar.Annotated(t.Annotation))
		}
		for _, c := range t.Columns {
			if strings.EqualFold(c.Type, "number") {
				tableOpts = append(tableOpts, gar.NumberColumn(c.Name, c.NL))
			} else {
				tableOpts = append(tableOpts, gar.TextColumn(c.Name, c.NL))
			}
		}
		db.AddTable(t.Name, tableOpts...)
	}
	for _, fk := range s.Database.ForeignKeys {
		db.AddForeignKey(fk.FromTable, fk.FromColumn, fk.ToTable, fk.ToColumn)
	}
	for _, ann := range s.Database.JoinAnnotations {
		conv := gar.JoinAnnotation{
			Tables:      ann.Tables,
			Description: ann.Description,
			TableKeys:   ann.TableKeys,
		}
		for _, c := range ann.Conditions {
			conv.Conditions = append(conv.Conditions, gar.JoinCondition{
				LeftTable: c.LeftTable, LeftColumn: c.LeftColumn,
				RightTable: c.RightTable, RightColumn: c.RightColumn,
			})
		}
		db.AddJoinAnnotation(conv)
	}
	return db
}

// specContent loads the spec's content rows into db; nil when the spec
// has none.
func specContent(s *spec, db *gar.Database) (*gar.Content, error) {
	if len(s.Content) == 0 {
		return nil, nil
	}
	content := gar.NewContent(db)
	for table, rows := range s.Content {
		for _, row := range rows {
			if err := content.Insert(table, row...); err != nil {
				return nil, err
			}
		}
	}
	return content, nil
}

// deploySystem runs the expensive back half of a cold build on an
// assembled system: Prepare the candidate pool from the spec's samples,
// then train (or load) and deploy the ranking models.
func deploySystem(sys *gar.System, s *spec, opts gar.Options, loadModels string) (*gar.Models, error) {
	if len(s.Samples) == 0 {
		return nil, fmt.Errorf("spec: no sample queries (the candidate pool would be empty)")
	}
	if err := sys.Prepare(s.Samples); err != nil {
		return nil, err
	}
	models, err := specModels(sys, s, opts, loadModels)
	if err != nil {
		return nil, err
	}
	if err := sys.UseModels(models); err != nil {
		return nil, err
	}
	return models, nil
}

// specModels loads the ranking models from loadModels, or trains them
// on the spec's examples over sys's prepared pool.
func specModels(sys *gar.System, s *spec, opts gar.Options, loadModels string) (*gar.Models, error) {
	if loadModels != "" {
		return gar.LoadModelsFile(loadModels)
	}
	return gar.TrainModels([]gar.TrainingSet{{System: sys, Examples: specExamples(s)}}, opts)
}

// specExamples converts the spec's training examples.
func specExamples(s *spec) []gar.Example {
	var examples []gar.Example
	for _, ex := range s.Examples {
		examples = append(examples, gar.Example{Question: ex.Question, SQL: ex.SQL})
	}
	return examples
}

// demoSpec is the paper's Fig. 1 employee database, self-contained.
func demoSpec() *spec {
	const demo = `{
	  "database": {
	    "name": "employee_hire_evaluation",
	    "tables": [
	      {"name": "employee", "primaryKey": ["employee_id"], "columns": [
	        {"name": "employee_id", "nl": "employee id", "type": "number"},
	        {"name": "name", "nl": "name", "type": "text"},
	        {"name": "age", "nl": "age", "type": "number"},
	        {"name": "city", "nl": "city", "type": "text"}]},
	      {"name": "evaluation", "primaryKey": ["employee_id", "year_awarded"], "columns": [
	        {"name": "employee_id", "nl": "employee id", "type": "number"},
	        {"name": "year_awarded", "nl": "year awarded", "type": "text"},
	        {"name": "bonus", "nl": "bonus", "type": "number"}]}
	    ],
	    "foreignKeys": [{"fromTable": "evaluation", "fromColumn": "employee_id",
	                     "toTable": "employee", "toColumn": "employee_id"}],
	    "joinAnnotations": [{
	      "tables": ["employee", "evaluation"],
	      "description": "the employees that received evaluations",
	      "tableKeys": "evaluation",
	      "conditions": [{"leftTable": "employee", "leftColumn": "employee_id",
	                      "rightTable": "evaluation", "rightColumn": "employee_id"}]}]
	  },
	  "samples": [
	    "SELECT name FROM employee WHERE age > 30",
	    "SELECT age FROM employee WHERE city = 'Austin'",
	    "SELECT COUNT(*) FROM employee",
	    "SELECT city, COUNT(*) FROM employee GROUP BY city",
	    "SELECT name FROM employee ORDER BY age DESC LIMIT 1",
	    "SELECT AVG(bonus) FROM evaluation",
	    "SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1",
	    "SELECT city FROM employee"
	  ],
	  "examples": [
	    {"question": "which employees are older than 30", "sql": "SELECT name FROM employee WHERE age > 30"},
	    {"question": "what is the age of employees in Austin", "sql": "SELECT age FROM employee WHERE city = 'Austin'"},
	    {"question": "how many employees are there", "sql": "SELECT COUNT(*) FROM employee"},
	    {"question": "how many employees per city", "sql": "SELECT city, COUNT(*) FROM employee GROUP BY city"},
	    {"question": "who is the oldest employee", "sql": "SELECT name FROM employee ORDER BY age DESC LIMIT 1"},
	    {"question": "what is the average bonus", "sql": "SELECT AVG(bonus) FROM evaluation"},
	    {"question": "find the name of the employee who got the highest one time bonus",
	     "sql": "SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1"},
	    {"question": "list the cities of employees", "sql": "SELECT city FROM employee"}
	  ],
	  "content": {
	    "employee": [[1, "George", 45, "Madrid"], [2, "John", 32, "Austin"],
	                 [3, "Alice", 28, "Austin"], [4, "Bob", 51, "Bristol"]],
	    "evaluation": [[1, "2016", 2000], [1, "2017", 3200], [2, "2017", 4100], [3, "2018", 1500]]
	  }
	}`
	s := &spec{}
	if err := json.Unmarshal([]byte(demo), s); err != nil {
		panic(err)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gar: %v\n", err)
	os.Exit(1)
}
