from pkg import mod


def check(monkeypatch, opts):
    mod.spread_target(**opts)
    mod.build("b", 1, 2)
    monkeypatch.setenv(mod.HOME_ENV, "/tmp")
