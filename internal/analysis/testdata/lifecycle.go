// Fixture for the lifecycle pass: no submission after teardown.
package fixture

import "bpar/internal/taskrt"

func lifecycleBad() {
	rt := taskrt.New(taskrt.Options{Workers: 1})
	t := &taskrt.Task{Label: "late"}
	rt.Shutdown()
	rt.SubmitAll([]*taskrt.Task{t}) // want "SubmitAll after Shutdown"
}

func lifecycleReplayBad(tpl *taskrt.Template) {
	rt := taskrt.New(taskrt.Options{Workers: 1})
	rt.Shutdown()
	rt.Replay(tpl) // want "Replay after Shutdown"
}

func lifecycleReplayDeferIsFine(tpl *taskrt.Template) {
	rt := taskrt.New(taskrt.Options{Workers: 1})
	defer rt.Shutdown()
	rt.Replay(tpl)
	_ = rt.Wait()
}

func lifecycleSeparateRuntimes(tpl *taskrt.Template) {
	a := taskrt.New(taskrt.Options{Workers: 1})
	b := taskrt.New(taskrt.Options{Workers: 1})
	a.Shutdown()
	b.Replay(tpl) // different variable: fine
	b.Shutdown()
}

// A runtime is live after Wait: resubmitting and replaying are fine. This is
// the shape of bench's taskrt probes, whose Wait sits in a helper closure
// that precedes the closures that submit.
func lifecycleSubmitAfterWaitIsFine(tasks []*taskrt.Task, tpl *taskrt.Template) func() {
	rt := taskrt.New(taskrt.Options{Workers: 1})
	wait := func() {
		if err := rt.Wait(); err != nil {
			panic(err)
		}
	}
	submit := func() {
		rt.SubmitAll(tasks)
		wait()
		rt.ResetDeps()
	}
	replay := func() {
		rt.Replay(tpl)
		wait()
	}
	submit()
	replay()
	rt.Replay(tpl)
	wait()
	return rt.Shutdown
}
