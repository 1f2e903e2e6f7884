package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"armsefi/internal/obs"
	"armsefi/internal/report"
	"armsefi/internal/serve"
)

// list prints one line per campaign the coordinator knows, or a hint when
// there are none.
func list(client *serve.Client, out io.Writer) error {
	sts, err := client.StatusAll()
	if err != nil {
		return err
	}
	if len(sts) == 0 {
		fmt.Fprintln(out, "no campaigns")
		return nil
	}
	for _, st := range sts {
		fmt.Fprintf(out, "%s  %-9s  %-9s  %d/%d shards  %d/%d items\n",
			st.ID, st.Kind, st.State, st.ShardsDone, st.ShardsTotal, st.ItemsDone, st.ItemsTotal)
	}
	fmt.Fprintf(out, "\ninspect one with: tracestat -remote %s -campaign ID\n", client.Base)
	return nil
}

// remote renders a campaign's convergence view and, once the campaign is
// complete, verifies its merged fleet trace against its assembled Result.
// A campaign that is not complete stops after the view.
func (in *inspection) remote(client *serve.Client, id string, follow bool, every time.Duration, out io.Writer) error {
	st, err := watch(client, id, follow, every, out)
	if err != nil || st.State != serve.StateComplete {
		return err
	}
	raw, err := client.RawResults(id)
	if err != nil {
		return err
	}
	c, err := resultCheck(st.Kind, raw, "remote campaign "+id)
	if err != nil {
		return err
	}
	trace, err := client.Trace(id)
	if err != nil {
		return err
	}
	sum, err := obs.ReadSummary(bytes.NewReader(trace))
	if err != nil {
		return err
	}
	in.checks = append(in.checks, c)
	fmt.Fprintln(out)
	return in.inspect(sum, out)
}

// watch polls one campaign's status and convergence view, rendering a
// table per poll, and returns the last status. Without follow it renders
// once; with follow it keeps polling every interval until the campaign
// settles — completes, is cancelled, or every estimator meets the target
// margin.
func watch(client *serve.Client, id string, follow bool, every time.Duration, out io.Writer) (*serve.CampaignStatus, error) {
	for {
		st, err := client.Status(id)
		if err != nil {
			return nil, err
		}
		cv, err := client.Convergence(id)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(out, render(st, cv))
		allMet := cv.AllMet && len(cv.Estimators) > 0
		if !follow || allMet || st.State == serve.StateComplete || st.State == serve.StateCancelled {
			if allMet {
				fmt.Fprintln(out, "every estimator meets the target margin")
			}
			return st, nil
		}
		time.Sleep(every)
	}
}

// render formats one poll: a status line plus the estimator table.
func render(st *serve.CampaignStatus, cv *serve.ConvView) string {
	title := fmt.Sprintf("campaign %s [%s, %s] — %d/%d shards, %d/%d items — merged from %d node(s)",
		st.ID, st.Kind, st.State, st.ShardsDone, st.ShardsTotal, st.ItemsDone, st.ItemsTotal, cv.Nodes)
	if cv.TargetMargin > 0 {
		title += fmt.Sprintf("\ntarget ±%.3g at %.0f%% confidence", cv.TargetMargin, 100*cv.Confidence)
		if cv.AllMet {
			title += " — ALL MET"
		}
	}
	if len(cv.Estimators) == 0 {
		return title + "\n(no convergence telemetry yet — workers ship estimates with -telemetry-every > 0)"
	}
	return title + "\n" + report.ConvergenceTable("", cv.Estimators, cv.TargetMargin)
}
