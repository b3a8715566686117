package histwalk

// Re-exports of the experiment harness and the dataset substitutes, so
// downstream users can regenerate the paper's evaluation or run the
// same protocols on their own graphs.

import (
	"histwalk/internal/dataset"
	"histwalk/internal/engine"
	"histwalk/internal/experiment"
)

// Experiment harness types.
type (
	// Figure is the data behind one plot (labeled series over an axis).
	Figure = experiment.Figure
	// Series is one labeled curve of a Figure.
	Series = experiment.Series
	// Table is a generic rendered text table.
	Table = experiment.Table
	// EstimationConfig parameterizes a relative-error-vs-budget figure.
	EstimationConfig = experiment.EstimationConfig
	// DistanceConfig parameterizes KL/ℓ2/error-vs-budget figures.
	DistanceConfig = experiment.DistanceConfig
	// DistanceResult bundles the KL, ℓ2 and error figures.
	DistanceResult = experiment.DistanceResult
	// StationaryConfig parameterizes the Figure 8 experiment.
	StationaryConfig = experiment.StationaryConfig
	// SizeSweepConfig parameterizes the Figure 11 graph-size sweep.
	SizeSweepConfig = experiment.SizeSweepConfig
	// EscapeConfig parameterizes the Theorem 3 barbell validation.
	EscapeConfig = experiment.EscapeConfig
	// EscapeResult reports barbell bridge-crossing probabilities.
	EscapeResult = experiment.EscapeResult
	// CostModel selects the budget metering of experiment runners.
	CostModel = experiment.CostModel
	// PaperConfig scales the full paper reproduction.
	PaperConfig = experiment.PaperConfig
)

// Budget metering models.
const (
	// CostUnique counts unique neighborhood queries (the paper's §2.3
	// definition; repeats served from the crawler cache are free).
	CostUnique = experiment.CostUnique
	// CostSteps charges every transition (used by the paper's
	// small-graph figures whose budgets exceed the node count).
	CostSteps = experiment.CostSteps
)

// Experiment runners.
var (
	// EstimationFigure measures estimation error against query cost.
	EstimationFigure = experiment.EstimationFigure
	// DistanceFigures measures KL, ℓ2 and error against query cost.
	DistanceFigures = experiment.DistanceFigures
	// StationaryFigure compares empirical visit distributions with π.
	StationaryFigure = experiment.StationaryFigure
	// StationaryDeviation summarizes a StationaryFigure series as its
	// ℓ2 distance from the theoretical distribution.
	StationaryDeviation = experiment.StationaryDeviation
	// SizeSweepFigures sweeps bias measures over graph sizes.
	SizeSweepFigures = experiment.SizeSweepFigures
	// BarbellEscape validates Theorem 3 empirically.
	BarbellEscape = experiment.BarbellEscape
	// DatasetTable computes Table 1 for a set of graphs.
	DatasetTable = experiment.DatasetTable
	// DesignFor maps a walker name to its estimator design.
	DesignFor = engine.DesignFor
	// QuickConfig returns the bench-scale reproduction configuration.
	QuickConfig = experiment.QuickConfig
	// FullConfig returns the EXPERIMENTS.md reproduction configuration.
	FullConfig = experiment.FullConfig
	// Table1 computes the dataset-summary table at a given scale.
	Table1 = experiment.Table1
	// Figure6 runs the Google Plus estimation experiment.
	Figure6 = experiment.Figure6
	// Figure7 runs the Facebook bias experiment.
	Figure7 = experiment.Figure7
	// Figure7d runs the YouTube estimation experiment.
	Figure7d = experiment.Figure7d
	// Figure8 runs the sampling-distribution experiment.
	Figure8 = experiment.Figure8
	// Figure9 runs the Yelp grouping-strategy experiment.
	Figure9 = experiment.Figure9
	// Figure10 runs the clustered-graph bias experiment.
	Figure10 = experiment.Figure10
	// Figure10Unique is Figure 10 under the unique-query cost model.
	Figure10Unique = experiment.Figure10Unique
	// Figure11 runs the barbell size sweep.
	Figure11 = experiment.Figure11
	// Theorem3 validates the barbell escape bound.
	Theorem3 = experiment.Theorem3
	// EscapeTable renders an EscapeResult as a table.
	EscapeTable = experiment.EscapeTable
	// AblationCirculationTable runs the edge- vs node-keyed circulation
	// ablation.
	AblationCirculationTable = experiment.AblationCirculationTable
	// AblationGroupCountFigure sweeps GNRW's stratum count.
	AblationGroupCountFigure = experiment.AblationGroupCountFigure
	// AblationFrontierFigure compares frontier sampling with single
	// walks.
	AblationFrontierFigure = experiment.AblationFrontierFigure
)

// AblationCirculationConfig parameterizes the circulation ablation.
type AblationCirculationConfig = experiment.AblationCirculationConfig

// Dataset substitutes for the paper's evaluation datasets (see
// DESIGN.md §4 for the substitution rationale).
var (
	// FacebookEgo1 is the first Facebook ego-network stand-in.
	FacebookEgo1 = dataset.FacebookEgo1
	// FacebookEgo2 is the Table 1 "Facebook" stand-in (775 nodes).
	FacebookEgo2 = dataset.FacebookEgo2
	// GooglePlus is the scaled Google Plus stand-in.
	GooglePlus = dataset.GooglePlus
	// GooglePlusN is GooglePlus at an explicit node count.
	GooglePlusN = dataset.GooglePlusN
	// Yelp is the scaled Yelp stand-in with the reviews_count
	// attribute.
	Yelp = dataset.Yelp
	// YelpN is Yelp at an explicit node count.
	YelpN = dataset.YelpN
	// Youtube is the scaled YouTube stand-in.
	Youtube = dataset.Youtube
	// YoutubeN is Youtube at an explicit node count.
	YoutubeN = dataset.YoutubeN
	// ClusteredGraph is the paper's 10/30/50 clustered-cliques graph.
	ClusteredGraph = dataset.ClusteredGraph
	// BarbellGraph is the paper's barbell dataset at a given node
	// count.
	BarbellGraph = dataset.BarbellGraph
	// DatasetByName constructs a dataset from its paper name.
	DatasetByName = dataset.ByName
	// DatasetNames lists the names accepted by DatasetByName.
	DatasetNames = dataset.Names
	// AllDatasets returns the full Table 1 family.
	AllDatasets = dataset.All
)

// Attribute names attached by the dataset substitutes.
const (
	// AttrReviews is the Yelp-like "reviews_count" measure attribute.
	AttrReviews = dataset.AttrReviews
	// AttrCommunity is the planted community label.
	AttrCommunity = dataset.AttrCommunity
	// AttrAge is a homophily-free uniform control attribute.
	AttrAge = dataset.AttrAge
)
