"""Tests for the scalar special functions.

Reference values were frozen from an independent high-precision computation
(mpmath at 25+ significant digits) and from closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstable.errors import DomainError
from dstable.special import (
    gen_binomial,
    polylog_unit,
    riemann_zeta,
    sibuya_pmf,
    sibuya_survival,
)

# ---------------------------------------------------------------------------
# gen_binomial
# ---------------------------------------------------------------------------


def test_gen_binomial_known_values():
    assert gen_binomial(0.5, 0) == 1.0
    assert gen_binomial(0.5, 1) == 0.5
    assert math.isclose(gen_binomial(0.5, 2), -0.125, rel_tol=1e-15)
    assert math.isclose(gen_binomial(0.5, 3), 0.0625, rel_tol=1e-15)
    # integer gamma reduces to the ordinary binomial coefficient
    assert gen_binomial(5.0, 3) == 10.0
    assert gen_binomial(5.0, 7) == 0.0
    assert gen_binomial(5.0, 70) == 0.0  # large-k integer path
    # negative integer gamma: C(-n, k) = (-1)^k C(n+k-1, k)
    assert math.isclose(gen_binomial(-2.0, 3), -4.0, rel_tol=1e-14)
    assert math.isclose(
        gen_binomial(-2.0, 71), -72.0, rel_tol=1e-12
    )  # exercises the k > 64 branch
    # frozen high-precision value across the log-gamma/reflection path
    assert math.isclose(gen_binomial(1.37, 5000), 6.0944467063479955091e-10, rel_tol=1e-11)


def test_gen_binomial_large_gamma_branch():
    # gamma > k - 1 with k > 64: all-positive log-gamma route
    got = gen_binomial(100.5, 70)
    # compare against the recurrence walked down from an in-range anchor
    ref = gen_binomial(100.5, 64)
    for k in range(64, 70):
        ref *= (100.5 - k) / (k + 1)
    assert math.isclose(got, ref, rel_tol=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(min_value=0.01, max_value=1.99, exclude_min=True),
    k=st.integers(min_value=1, max_value=10_000),
)
def test_gen_binomial_recurrence(g, k):
    """C(g, k+1) = C(g, k) (g - k) / (k + 1), to 1e-12 relative."""
    lhs = gen_binomial(g, k + 1)
    rhs = gen_binomial(g, k) * (g - k) / (k + 1)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gen_binomial_domain():
    with pytest.raises(DomainError):
        gen_binomial(0.5, -1)
    with pytest.raises(DomainError):
        gen_binomial(0.5, 1.5)
    with pytest.raises(DomainError):
        gen_binomial(math.nan, 3)


# ---------------------------------------------------------------------------
# Sibuya pmf / survival
# ---------------------------------------------------------------------------


def test_sibuya_survival_frozen():
    assert sibuya_survival(0.5, 2) == pytest.approx(0.375, abs=1e-15)
    assert sibuya_survival(0.5, 10) == pytest.approx(0.176197052001953125, rel=1e-14)
    assert sibuya_survival(0.3, 1) == pytest.approx(0.7, rel=1e-15)
    assert sibuya_survival(0.3, 7) == pytest.approx(0.42337911375000012559, rel=1e-13)
    assert sibuya_survival(0.9, 100) == pytest.approx(0.0016651893830559201421, rel=1e-12)
    assert sibuya_survival(0.7, 1000) == pytest.approx(0.0026549440522683876302, rel=1e-12)
    assert sibuya_survival(0.4, 0) == 1.0


def test_sibuya_pmf_basic():
    assert sibuya_pmf(0.5, 1) == 0.5
    assert sibuya_pmf(1.0, 1) == 1.0
    assert sibuya_pmf(1.0, 2) == 0.0
    assert sibuya_survival(1.0, 3) == 0.0
    # pmf values are positive and sum to 1 - survival
    total = sum(sibuya_pmf(0.3, k) for k in range(1, 51))
    assert total == pytest.approx(1.0 - sibuya_survival(0.3, 50), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=0.1, max_value=0.99),
    m=st.integers(min_value=1, max_value=200),
)
def test_sibuya_pmf_matches_survival_increment(alpha, m):
    """P(K = m) = P(K > m-1) - P(K > m)."""
    pmf = sibuya_pmf(alpha, m)
    inc = sibuya_survival(alpha, m - 1) - sibuya_survival(alpha, m)
    assert pmf == pytest.approx(inc, rel=1e-9, abs=1e-15)
    assert pmf > 0.0


def test_sibuya_domain():
    for bad_alpha in (0.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            sibuya_pmf(bad_alpha, 1)
        with pytest.raises(DomainError):
            sibuya_survival(bad_alpha, 1)
    with pytest.raises(DomainError):
        sibuya_pmf(0.5, 0)
    with pytest.raises(DomainError):
        sibuya_survival(0.5, -1)


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

_ZETA_REFS = [
    (2.0, 1.6449340668482264365),
    (4.0, 1.0823232337111381915),
    (1.5, 2.6123753486854883433),
    (1.2, 5.5915824411777507765),
    (3.0, 1.2020569031595942854),
]


@pytest.mark.parametrize("s,ref", _ZETA_REFS)
def test_zeta_frozen(s, ref):
    assert riemann_zeta(s) == pytest.approx(ref, abs=1e-10, rel=1e-12)


def test_zeta_exact_pi_forms():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
    assert riemann_zeta(6.0) == pytest.approx(math.pi**6 / 945.0, rel=1e-14)


def test_zeta_large_s_branch():
    # for large s the value is 1 + 2^-s to machine accuracy
    s = 60.0
    assert riemann_zeta(s) == pytest.approx(1.0 + 2.0**-s, rel=1e-15)
    assert riemann_zeta(200.0) == 1.0


def test_zeta_domain():
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            riemann_zeta(bad)


# ---------------------------------------------------------------------------
# polylog on the unit circle
# ---------------------------------------------------------------------------

_POLYLOG_REFS = [
    # (s, theta, reference from 25-digit computation)
    (2.0, math.pi, -(math.pi**2) / 12.0 + 0.0j),
    (1.7, 1.0, 0.26126431259342473296 + 1.0367758323283198575j),
    (1.5, 0.25, 1.365559043168783878 + 0.88829191399978725316j),
    (1.2, 1e-06, 5.2422692316285015579 + 0.11349800801597886388j),
    (2.5, 2.0, -0.48175016400247910333 + 0.77774254569368508916j),
    (1.05, 0.45001, 0.82958047507968583902 + 1.3083469055228383971j),
    (4.0, 3.0, -0.93879659652884598607 + 0.12732399711212230519j),
    (1.0001, 1e-12, 27.594506965450997709 + 1.5665524746290665627j),
    (7.5, -2.5, -0.7995059513084041923 - 0.59340605046322577314j),
]


@pytest.mark.parametrize("s,theta,ref", _POLYLOG_REFS)
def test_polylog_frozen(s, theta, ref):
    assert polylog_unit(s, theta) == pytest.approx(ref, abs=2e-10)


# Li_s(e^{i theta}) from mpmath at 40 digits, for s at and next to the integers 2
# and 3, close to 1, half-way between integers, and past the s >= 60 switch, at
# each theta below
_POLYLOG_MPMATH_THETA = (1e-12, -1e-12, 0.3, 2.0, math.pi, -math.pi, 5.0, -7.0)
_POLYLOG_MPMATH = {
    2.0: (
        1.644934066846655640146 + 2.863102111592854765246e-11j,
        1.644934066846655640146 - 2.863102111592854765246e-11j,
        1.196195168809757466477 + 0.6615670102202010031396j,
        -0.4966585867415668019902 + 0.7271460508632792474298j,
        -0.8224670334241132182362 + 8.488604760107494901337e-17j,
        -0.8224670334241132182362 - 8.488604760107494901337e-17j,
        0.04095243287374334031581 - 0.9928201325469567187093j,
        0.6474200063341146702836 - 0.9605982062453572148353j,
    ),
    2.0 + 1e-9: (
        1.644934065909107309295 + 2.863102072240456799452e-11j,
        1.644934065909107309295 - 2.863102072240456799452e-11j,
        1.196195168680142392729 + 0.661567009819209464345j,
        -0.4966585867116565402834 + 0.7271460509802910700484j,
        -0.8224670335254298047575 + 8.488604762065324486224e-17j,
        -0.8224670335254298047575 - 8.488604762065324486224e-17j,
        0.0409524330388379127741 - 0.9928201325655974985658j,
        0.6474200064832364804622 - 0.9605982060393943692375j,
    ),
    2.0 - 1e-9: (
        1.644934067784203972985 + 2.863102150945253467484e-11j,
        1.644934067784203972985 - 2.863102150945253467484e-11j,
        1.196195168939372540199 + 0.6615670106211925424092j,
        -0.4966585867714770636945 + 0.7271460507462674247429j,
        -0.8224670333227966316645 + 8.488604758149665312851e-17j,
        -0.8224670333227966316645 - 8.488604758149665312851e-17j,
        0.04095243270864876775709 - 0.9928201325283159387969j,
        0.647420006184992859914 - 0.9605982064513200605442j,
    ),
    2.0 + 1e-6: (
        1.644933129299395876437 + 2.863062759565990396568e-11j,
        1.644933129299395876437 - 2.863062759565990396568e-11j,
        1.196195039194681272335 + 0.6615666092289325646719j,
        -0.4966585568313062882995 + 0.7271461678750580351974j,
        -0.822467134740666208117 + 8.488606717936507396952e-17j,
        -0.822467134740666208117 - 8.488606717936507396952e-17j,
        0.04095259796825199960426 - 0.9928201511877071335463j,
        0.6474201554558170816211 - 0.9605980002825841395346j,
    ),
    2.0 - 1e-6: (
        1.64493500439590447591 + 2.863141464356153796003e-11j,
        1.64493500439590447591 - 2.863141464356153796003e-11j,
        1.196195298424807300781 + 0.661567411211944295669j,
        -0.496658616651824751579 + 0.7271459338514320861397j,
        -0.8224669321075098752752 + 8.48860280227768225705e-17j,
        -0.8224669321075098752752 - 8.48860280227768225705e-17j,
        0.04095226777913429305344 - 0.9928201139061504482792j,
        0.6474198572122212015664 - 0.9605984122082413752215j,
    ),
    2.0 + 1e-4: (
        1.644840321966629505642 + 2.85917055171938345972e-11j,
        1.644840321966629505642 - 2.85917055171938345972e-11j,
        1.196182207171851010755 + 0.6615269134442361562344j,
        -0.4966555957028598569231 + 0.7271577517025840824534j,
        -0.8224771648300546710609 + 8.488800539045849082948e-17j,
        -0.8224771648300546710609 - 8.488800539045849082948e-17j,
        0.04096894182751196669196 - 0.9928219963455053123498j,
        0.647434917558493296556 - 0.9605776105181499891533j,
    ),
    2.0 - 1e-4: (
        1.645027831619484097122 + 2.867041035903219365961e-11j,
        1.645027831619484097122 - 2.867041035903219365961e-11j,
        1.196208130184353303876 + 0.6616071117455967618135j,
        -0.4966615777546991348355 + 0.7271343493399793945918j,
        -0.8224569015144160176627 + 8.48840897316330753335e-17j,
        -0.8224569015144160176627 - 8.48840897316330753335e-17j,
        0.04093592291572842813515 - 0.9928182681898108072233j,
        0.6474050931988311599591 - 0.9606188030838725783797j,
    ),
    2.0 + 1e-3: (
        1.643997512233475264373 + 2.824115368542659624032e-11j,
        1.643997512233475264373 - 2.824115368542659624032e-11j,
        1.19606554063110477503 + 0.6611662560910469559834j,
        -0.4966286752070469901878 + 0.7272630284817144227891j,
        -0.8225683248174543657015 + 8.490562189247550971201e-17j,
        -0.8225683248174543657015 - 8.490562189247550971201e-17j,
        0.04111747722717704629186 - 0.9928387454084715232825j,
        0.6475690326242781748743 - 0.9603922989820665928943j,
    ),
    2.0 - 1e-3: (
        1.645872610742069201061 + 2.902825327064317341275e-11j,
        1.645872610742069201061 - 2.902825327064317341275e-11j,
        1.196324770657283835172 + 0.6619682392925054161795j,
        -0.4966884957186238550023 + 0.7270290048453394559095j,
        -0.8223656916551951453488 + 8.486646530384094906035e-17j,
        -0.8223656916551951453488 - 8.486646530384094906035e-17j,
        0.04078728809567872817797 - 0.9928014638257028559152j,
        0.6472707889534403825096 - 0.9608042246394542575044j,
    ),
    2.0 + 5e-3: (
        1.640271067197102479073 + 2.675231525279308695497e-11j,
        1.640271067197102479073 - 2.675231525279308695497e-11j,
        1.19554677057538063575 + 0.6595679776361152923437j,
        -0.4965090039067554894639 + 0.7277302555862973348203j,
        -0.8229729869910135216048 + 8.498383902285591839699e-17j,
        -0.8229729869910135216048 - 8.498383902285591839699e-17j,
        0.04177665122308583207039 - 0.9929126398201331806767j,
        0.6481632313720359962303 - 0.9595697812235268226805j,
    ),
    2.0 - 5e-3: (
        1.649646799752143909725 + 3.069401929377956647786e-11j,
        1.649646799752143909725 - 3.069401929377956647786e-11j,
        1.196842908725146638545 + 0.6635779164135223592161j,
        -0.4968081056384753526642 + 0.7265601361525023116692j,
        -0.8219598204678497911424 + 8.478805603356819778639e-17j,
        -0.8219598204678497911424 - 8.478805603356819778639e-17j,
        0.0401257039094402605377 - 0.9927262287761462907097j,
        0.6466720040218678739357 - 0.9616294095301126114916j,
    ),
    3.0 + 1e-7: (
        1.202056883346971227995 + 1.644933973092625675719e-12j,
        1.202056883346971227995 - 1.644933973092625675719e-12j,
        1.080349984513999330852 + 0.4250443726688716678719j,
        -0.4679714695103716446458 + 0.8149421530983398078336j,
        -0.9015426833402861541075 + 1.007231632294761378748e-16j,
        -0.9015426833402861541075 - 1.007231632294761378748e-16j,
        0.1629490401774520280595 - 0.9936170830837118051424j,
        0.7302355045862622020632 - 0.8062500256041511162831j,
    ),
    1.001: (
        27.2688175506361188657 + 1.52887062841316506243j,
        27.2688175506361188657 - 1.52887062841316506243j,
        1.208020087591247983031 + 1.419536928144676267817j,
        -0.5205318022969008655948 + 0.5709967723124837030262j,
        -0.6933070167789611847134 + 6.125998768566064769564e-17j,
        -0.6933070167789611847134 - 6.125998768566064769564e-17j,
        -0.179492693254446196996 - 0.92933373156271647744j,
        0.3549361467559668227535 - 1.212115839977279009184j,
    ),
    1.5: (
        2.612372842057213712348 + 2.506626814276491667621e-6j,
        2.612372842057213712348 - 2.506626814276491667621e-6j,
        1.248796257112070298175 + 0.9349452701078610381351j,
        -0.5107883460388913697374 + 0.6594360535672836271925j,
        -0.7651470246254079453673 + 7.407871874748757772924e-17j,
        -0.7651470246254079453673 - 7.407871874748757772924e-17j,
        -0.05494640409678627789922 - 0.9746534156852338231227j,
        0.5436434564813701069733 - 1.077002486477131010859j,
    ),
    2.5: (
        1.341487257250917178086 + 2.612373677599971870138e-12j,
        1.341487257250917178086 - 2.612373677599971870138e-12j,
        1.13260723453170369363 + 0.5100608953610271840294j,
        -0.4817501640024791033311 + 0.7777425456936850891627j,
        -0.8671998890121841381913 + 9.370348545846268594868e-17j,
        -0.8671998890121841381913 - 9.370348545846268594868e-17j,
        0.1118350041340238987327 - 0.9965882412313098816836j,
        0.7022222077437491863547 - 0.8711978871806473855509j,
    ),
    3.5: (
        1.126733867317056646428 + 1.341487257250917152107e-12j,
        1.126733867317056646428 - 1.341487257250917152107e-12j,
        1.042057290779949777552 + 0.3760667718136311106874j,
        -0.4561502698503340969602 + 0.8419661899229669628743j,
        -0.9275535777739480351136 + 1.062013568299711235771e-16j,
        -0.9275535777739480351136 - 1.062013568299711235771e-16j,
        0.1992320467660291849165 - 0.9881259644417123419513j,
        0.7440833379786609177522 - 0.7604152226071368547053j,
    ),
    4.6: (
        1.050517382566573485097 + 1.115989079123337658478e-12j,
        1.050517382566573485097 - 1.115989079123337658478e-12j,
        0.9937303154333717720852 + 0.3264081687029445569174j,
        -0.437526636290547569492 + 0.877611606915499050046j,
        -0.963882007772759171916 + 1.141272265611700933779e-16j,
        -0.963882007772759171916 - 1.141272265611700933779e-16j,
        0.2454227009881621531907 - 0.9759800205648696822768j,
        0.7538885183872199135902 - 0.7030186039930169396088j,
    ),
    60.5: (
        1.000000000000000000613 + 9.999999999999999811133e-13j,
        1.000000000000000000613 - 9.999999999999999811133e-13j,
        0.9553364891256060234294 + 0.2955202066613395648453j,
        -0.4161468365471423873985 + 0.9092974268256816949319j,
        -0.9999999999999999993867 + 1.224646799147353175724e-16j,
        -0.9999999999999999993867 - 1.224646799147353175724e-16j,
        0.283662185463226263952 - 0.9589242746631384692268j,
        0.7539022543433046382251 - 0.6569865987187890910046j,
    ),
    200.0: (
        1.0 + 9.999999999999999798866e-13j,
        1.0 - 9.999999999999999798866e-13j,
        0.9553364891256060229232 + 0.295520206661339564499j,
        -0.4161468365471423869976 + 0.909297426825681695396j,
        -1.0 + 1.224646799147353177226e-16j,
        -1.0 - 1.224646799147353177226e-16j,
        0.2836621854632262644666 - 0.9589242746631384688932j,
        0.7539022543433046381412 - 0.656986598718789090397j,
    ),
    1000.0: (
        1.0 + 9.999999999999999798866e-13j,
        1.0 - 9.999999999999999798866e-13j,
        0.9553364891256060229232 + 0.295520206661339564499j,
        -0.4161468365471423869976 + 0.909297426825681695396j,
        -1.0 + 1.224646799147353177226e-16j,
        -1.0 - 1.224646799147353177226e-16j,
        0.2836621854632262644666 - 0.9589242746631384688932j,
        0.7539022543433046381412 - 0.656986598718789090397j,
    ),
}


@pytest.mark.parametrize(
    "s,theta,ref",
    [
        (s, theta, ref)
        for s, refs in _POLYLOG_MPMATH.items()
        for theta, ref in zip(_POLYLOG_MPMATH_THETA, refs)
    ],
)
def test_polylog_mpmath(s, theta, ref):
    if abs(ref) > 10.0:
        assert polylog_unit(s, theta) == pytest.approx(ref, rel=1e-13)
    else:
        assert polylog_unit(s, theta) == pytest.approx(ref, abs=1e-12)

def test_polylog_brute_force_cross_check():
    """Partial sum plus an integral tail bound pins the value independently."""
    s, theta = 3.5, 2.0
    k = np.arange(1, 200_001, dtype=float)
    partial = np.sum(np.exp(1j * theta * k) * k**-s)
    tail_bound = (200_000.0) ** (1.0 - s) / (s - 1.0)
    assert abs(polylog_unit(s, theta) - partial) <= tail_bound + 1e-12


def test_polylog_at_theta_zero_is_zeta():
    for s in (1.001, 1.3, 2.0, 2.0 + 1e-9, 3.0, 11.0, 59.99, 60.5):
        v = polylog_unit(s, 0.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(riemann_zeta(s), rel=1e-13)
        assert polylog_unit(s, 2.0 * math.pi) == pytest.approx(v, rel=1e-13)


@settings(max_examples=150, deadline=None)
@given(
    s=st.floats(min_value=1.01, max_value=40.0),
    theta=st.floats(min_value=-10.0, max_value=10.0),
)
def test_polylog_conjugate_symmetry(s, theta):
    a = polylog_unit(s, theta)
    b = polylog_unit(s, -theta)
    assert a == pytest.approx(b.conjugate(), abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    s=st.floats(min_value=1.05, max_value=30.0),
    theta=st.floats(min_value=0.01, max_value=3.0),
)
def test_polylog_periodicity_and_bound(s, theta):
    a = polylog_unit(s, theta)
    b = polylog_unit(s, theta + 2.0 * math.pi)
    assert a == pytest.approx(b, abs=1e-9)
    assert abs(a) <= riemann_zeta(s) * (1.0 + 1e-12)


def test_polylog_huge_theta_stays_bounded():
    # angles far past 2 pi still fold into [-pi, pi]: |Li| <= zeta(s), no
    # overflow, and theta -> -theta gives exactly the conjugate
    theta = np.array([1e16, 3.3e20, 7.7e100, 1e300])
    for s in (1.3, 2.0, 7.5):
        a = polylog_unit(s, theta)
        assert np.all(np.abs(a) <= riemann_zeta(s) * (1.0 + 1e-12))
        assert np.array_equal(polylog_unit(s, -theta), np.conj(a))

def test_polylog_vectorized_matches_scalar():
    thetas = np.array([-2.0, -1e-8, 0.0, 0.3, 0.45, 1.0, math.pi])
    vec = polylog_unit(1.4, thetas)
    assert vec.shape == thetas.shape
    for t, v in zip(thetas, vec):
        assert polylog_unit(1.4, float(t)) == pytest.approx(v, abs=1e-14)
    # shape is preserved for 2-D inputs
    grid = thetas.reshape(1, -1)
    assert polylog_unit(1.4, grid).shape == grid.shape


def test_polylog_domain():
    with pytest.raises(DomainError):
        polylog_unit(1.0, 0.3)
    with pytest.raises(DomainError):
        polylog_unit(0.5, 0.3)
    with pytest.raises(DomainError):
        polylog_unit(2.0, math.inf)
