"""Closed vocabularies for news-event fields.

Every enum value below is a document token: the exact string that appears
as element content in a serialized document. Fields whose vocabulary is
open-ended (CompetitionCode, EconomicReleaseType, Illness,
OrganizationType) are plain tokens and are not enumerated here.
"""

from __future__ import annotations

from enum import Enum


class TokenEnum(Enum):
    """Enum whose member values are the serialized document tokens."""

    def __str__(self) -> str:
        return self.value


class Sentiment(TokenEnum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    OTHER = "Other"


class Sex(TokenEnum):
    FEMALE = "Female"
    MALE = "Male"


class Continent(TokenEnum):
    AFRICA = "Africa"
    ANTARCTICA = "Antarctica"
    ASIA = "Asia"
    EUROPE = "Europe"
    NORTH_AMERICA = "NorthAmerica"
    SOUTH_AMERICA = "SouthAmerica"


class Sport(TokenEnum):
    # "Martial Arts" is accepted on input and normalized to MartialArts,
    # the only two-word value in the vocabulary.
    ARCHERY = "Archery"
    AUTO_RACING = "AutoRacing"
    BADMINTON = "Badminton"
    BASEBALL = "Baseball"
    BASKETBALL = "Basketball"
    BIATHLON = "Biathlon"
    BOATING = "Boating"
    BOBSLEDDING = "Bobsledding"
    BOXING = "Boxing"
    CRICKET = "Cricket"
    CURLING = "Curling"
    CYCLING = "Cycling"
    EXTREME_SPORTS = "ExtremeSports"
    FENCING = "Fencing"
    FISHING = "Fishing"
    FOOTBALL = "Football"
    GOLF = "Golf"
    GYMNASTICS = "Gymnastics"
    HIGH_JUMP = "HighJump"
    HOCKEY = "Hockey"
    HORSE_RACING = "HorseRacing"
    JAVELIN = "Javelin"
    LONG_JUMP = "LongJump"
    MARTIAL_ARTS = "MartialArts"
    OLYMPICS = "Olympics"
    POLE_VAULT = "PoleVault"
    RODEO = "Rodeo"
    ROWING = "Rowing"
    RUGBY = "Rugby"
    RUNNING = "Running"
    SHOT_PUT = "ShotPut"
    SNOWBOARDING = "Snowboarding"
    SOCCER = "Soccer"
    SOFTBALL = "Softball"
    SPORT = "Sport"
    TENNIS = "Tennis"
    TRACK = "Track"
    TRIATHLON = "Triathlon"
    VOLLEYBALL = "Volleyball"
    WATER_SPORTS = "WaterSports"
    WEIGHTLIFTING = "Weightlifting"
    WINTER_SPORTS = "WinterSports"
    WRESTLING = "Wrestling"

    @classmethod
    def _missing_(cls, value):
        if value == "Martial Arts":
            return cls.MARTIAL_ARTS
        return None


class CompetitionOutcome(TokenEnum):
    LOSS = "Loss"
    TIE = "Tie"
    WIN = "Win"


class DealStatus(TokenEnum):
    RUMORED = "Rumored"
    IN_TALKS = "InTalks"
    AGREED = "Agreed"
    APPROVED = "Approved"
    COMPLETED = "Completed"
    FAILED = "Failed"


class GoodBad(TokenEnum):
    GOOD = "Good"
    BAD = "Bad"


class Direction(TokenEnum):
    DOWN = "Down"
    UNCHANGED = "Unchanged"
    UP = "Up"


class FedAction(TokenEnum):
    HOLD = "Hold"
    LOWER = "Lower"
    RAISE = "Raise"


class InterestRateName(TokenEnum):
    COMMERCIAL_PAPER_1M = "1MCommercialPaperRate"
    COMMERCIAL_PAPER_3M = "3MCommercialPaperRate"
    COMMERCIAL_PAPER_6M = "6MCommercialPaperRate"
    BASE_RATE = "BaseRate"
    COMMERCIAL_PAPER = "CommercialPaperRate"
    DISCOUNT_RATE = "DiscountRate"
    FEDERAL_FUNDS_RATE = "FederalFundsRate"
    FEDERAL_FUNDS_TARGET = "FederalFundsTarget"
    INTEREST_RATE = "InterestRate"
    PRIME_RATE = "PrimeRate"
    T_BILL = "TBill"
    T_BILL_1Y = "TBill1Y"
    T_BILL_3M = "TBill3M"
    T_BILL_6M = "TBill6M"
    T_BOND_30Y = "TBond30Y"
    T_NOTE_2Y = "TNote2Y"
    T_NOTE_5Y = "TNote5Y"
    T_NOTE_10Y = "TNote10Y"


class Boat(TokenEnum):
    BATTLESHIP = "Battleship"
    BOAT = "Boat"
    CABIN_CRUISER = "CabinCruiser"
    CRUISER = "Cruiser"
    DINGHY = "Dinghy"
    INFLATABLE_DINGHY = "InflatableDinghy"
    LIFE_RAFT = "LifeRaft"
    LIFEBOAT = "Lifeboat"
    PASSENGER_SHIP = "PassengerShip"
    POWERBOAT = "Powerboat"
    RAFT = "Raft"
    SHIP = "Ship"
    SMALL_BOAT = "SmallBoat"
    STEAMSHIP = "Steamship"
    VESSEL = "Vessel"
    WARSHIP = "Warship"
    WINDSURFER = "Windsurfer"


class Cause(TokenEnum):
    AERIAL_BOMB = "AerialBomb"
    ALERT = "Alert"
    BOAT_COLLISION = "BoatCollision"
    BOMB = "Bomb"
    CAR_CRASH = "CarCrash"
    CURFEW = "Curfew"
    DISASTER = "Disaster"
    DYNAMITE = "Dynamite"
    EARTHQUAKE = "Earthquake"
    EVACUATION = "Evacuation"
    EXPLOSIVE = "Explosive"
    FIRE = "Fire"
    FIREBOMB = "Firebomb"
    GRENADE = "Grenade"
    MINE = "Mine"
    MOLOTOV_COCKTAIL = "MolotovCocktail"
    PLANE_CRASH = "PlaneCrash"
    VEHICLE_BOMB = "VehicleBomb"


class JointVentureType(TokenEnum):
    AGREEMENT = "Agreement"
    ALLIANCE = "Alliance"
    DEAL = "Deal"
    DISTRIBUTION_AGREEMENT = "DistributionAgreement"
    LAUNCH_CONTRACT = "LaunchContract"
    LICENSING_AGREEMENT = "LicensingAgreement"
    MARKETING_ALLIANCE = "MarketingAlliance"
    PARTNERSHIP = "Partnership"
    PROMOTION_AGREEMENT = "PromotionAgreement"
    RELATIONSHIP = "Relationship"
    STRATEGIC_ALLIANCE = "StrategicAlliance"
    VENTURE = "Venture"


class AccusationAction(TokenEnum):
    AGGRAVATED_ASSAULT = "AggravatedAssault"
    ASSASSINATION = "Assassination"
    ASSAULT = "Assault"
    CAPITAL_MURDER = "CapitalMurder"
    CONSPIRACY = "Conspiracy"
    CONSPIRING_TO_KILL = "ConspiringToKill"
    CRIME = "Crime"
    DISORDERLY_CONDUCT = "DisorderlyConduct"
    FIRST_DEGREE_MURDER = "FirstDegreeMurder"
    GENOCIDE = "Genocide"
    HARASSMENT = "Harassment"
    INVOLUNTARY_MANSLAUGHTER = "InvoluntaryManslaughter"
    MANSLAUGHTER = "Manslaughter"
    MASSACRE = "Massacre"
    MURDER = "Murder"
    OBSTRUCTION_OF_JUSTICE = "ObstructionOfJustice"
    PREMEDITATED_MURDER = "PremeditatedMurder"
    RACIAL_HARASSMENT = "RacialHarassment"
    RAPE = "Rape"
    SECOND_DEGREE_MURDER = "SecondDegreeMurder"
    SEXUAL_ASSAULT = "SexualAssault"
    SEXUAL_HARASSMENT = "SexualHarassment"
    SLAUGHTER = "Slaughter"
    TORTURE = "Torture"
    WRONGDOING = "Wrongdoing"


class DispositionMethod(TokenEnum):
    COURT_TRIAL = "CourtTrial"
    JURY_TRIAL = "JuryTrial"
    SUMMARY_JUDGMENT = "SummaryJudgment"
    CONSENT_JUDGMENT = "ConsentJudgment"
    DEFAULT_JUDGMENT = "DefaultJudgment"
    DIRECTED_VERDICT = "DirectedVerdict"
    ARBITRATION_AWARD = "ArbitrationAward"
    SETTLEMENT = "Settlement"
    DISMISSAL = "Dismissal"
    TRANSFER = "Transfer"


class Judgment(TokenEnum):
    GUILTY = "Guilty"
    INNOCENT = "Innocent"


class LegalAction(TokenEnum):
    ARGUE = "Argue"
    ARREST = "Arrest"
    CHARGE = "Charge"
    FILE = "File"
    JUDGE = "Judge"
    PLEAD = "Plead"
    RELEASE = "Release"
    SENTENCE = "Sentence"
    SETTLE = "Settle"
    TESTIFY = "Testify"


class LegalFiling(TokenEnum):
    COMPLAINT = "Complaint"
    MOTION = "Motion"
    OBSCENITY_COMPLAINT = "ObscenityComplaint"
    PLEADING = "Pleading"
    SUIT = "Suit"


class SentenceType(TokenEnum):
    EXECUTION = "Execution"
    JAIL = "Jail"
    JAIL_LIFE = "JailLife"
    JAIL_LIFE_WITHOUT_POSSIBLE_PAROLE = "JailLifeWithoutPossibleParole"
    JAIL_LIFE_WITH_POSSIBLE_PAROLE = "JailLifeWithPossibleParole"
    PROBATION = "Probation"
    STATE_CUSTODY = "StateCustody"


class IllnessFactor(TokenEnum):
    AIR_POLLUTION = "AirPollution"
    ALCOHOL = "Alcohol"
    ANABOLIC_STEROIDS = "AnabolicSteroids"
    BREAST_IMPLANT = "BreastImplant"
    CIGAR_SMOKING = "CigarSmoking"
    CIGARETTE_SMOKING = "CigaretteSmoking"
    CIRCUMCISION = "Circumcision"
    COCAINE = "Cocaine"
    CONTRACEPTION = "Contraception"
    CONTRACEPTIVE_PILL = "ContraceptivePill"
    DIETING = "Dieting"
    ECSTASY = "Ecstasy"
    HEROIN = "Heroin"
    HYSTERECTOMY = "Hysterectomy"
    IMMUNIZATION = "Immunization"
    LSD = "LSD"
    MESCALINE = "Mescaline"
    OPIUM = "Opium"
    POLLUTION = "Pollution"
    SMOKING = "Smoking"
    STRESS = "Stress"
    TOBACCO = "Tobacco"
    VACCINATION = "Vaccination"


class Agreement(TokenEnum):
    ACCORD = "Accord"
    AGREEMENT = "Agreement"
    FINAL_SETTLEMENT = "FinalSettlement"
    LEGISLATION = "Legislation"
    MEASURE = "Measure"
    PEACE_AGREEMENT = "PeaceAgreement"
    PEACE_DEAL = "PeaceDeal"
    PEACE_TREATY = "PeaceTreaty"
    SETTLEMENT = "Settlement"
    TREATY = "Treaty"


class NegotiationStatus(TokenEnum):
    AGREEMENT_REACHED = "AgreementReached"
    INITIAL_TALKS = "InitialTalks"
    TALKS = "Talks"


class ProductStatus(TokenEnum):
    RELEASED = "Released"
    RECALLED = "Recalled"


class Legislation(TokenEnum):
    AMENDMENT = "Amendment"
    BILL = "Bill"
    CONCURRENT_RESOLUTION = "ConcurrentResolution"
    CONGRESSIONAL_JOINT_RESOLUTION = "CongressionalJointResolution"
    HOUSE_AMENDMENT = "HouseAmendment"
    HOUSE_BILL = "HouseBill"
    HOUSE_CONCURRENT_RESOLUTION = "HouseConcurrentResolution"
    HOUSE_JOINT_RESOLUTION = "HouseJointResolution"
    HOUSE_RESOLUTION = "HouseResolution"
    JOINT_RESOLUTION = "JointResolution"
    RESOLUTION = "Resolution"
    SENATE_AMENDMENT = "SenateAmendment"
    SENATE_BILL = "SenateBill"
    SENATE_CONCURRENT_RESOLUTION = "SenateConcurrentResolution"
    SENATE_JOINT_RESOLUTION = "SenateJointResolution"
    SENATE_RESOLUTION = "SenateResolution"


class VoteStatus(TokenEnum):
    PASSED = "Passed"
    REJECTED = "Rejected"
    SIGNED = "Signed"
    VETO_THREAT = "VetoThreat"


class ArmedConflict(TokenEnum):
    AIR_BATTLE = "AirBattle"
    AIR_STRIKE = "AirStrike"
    ARMED_CONFLICT = "ArmedConflict"
    ARTILLERY_FIRE = "ArtilleryFire"
    ATTACK = "Attack"
    BATTLE = "Battle"
    BOMBING = "Bombing"
    CIVIL_UNREST = "CivilUnrest"
    CIVIL_WAR = "CivilWar"
    CLASH = "Clash"
    CONFLICT = "Conflict"
    COUP = "Coup"
    FIGHTING = "Fighting"
    FIRE = "Fire"
    GUERRILLA_ACTIVITIES = "GuerrillaActivities"
    HOSTILITIES = "Hostilities"
    LAND_BATTLE = "LandBattle"
    LAND_WAR = "LandWar"
    MASSACRE = "Massacre"
    SKIRMISH = "Skirmish"
    SNIPER_FIRE = "SniperFire"
    UNREST = "Unrest"
    VIOLENCE = "Violence"
    WAR = "War"
    WARFARE = "Warfare"


class ArmedForceAction(TokenEnum):
    ARRIVE = "Arrive"
    BEGIN = "Begin"
    DEPART = "Depart"
    DEPLOY = "Deploy"
    MOVEMENT = "Movement"


class VictimAction(TokenEnum):
    FLEE = "Flee"
    RETURN = "Return"


class CompassDirection(TokenEnum):
    EAST = "East"
    NORTH = "North"
    NORTHEAST = "Northeast"
    NORTHWEST = "Northwest"
    SOUTH = "South"
    SOUTHEAST = "Southeast"
    SOUTHWEST = "Southwest"
    WEST = "West"


class DeclaredState(TokenEnum):
    ALERT = "Alert"
    DISASTER = "Disaster"
    EVACUATION = "Evacuation"
    FIRE = "Fire"


class Meteor(TokenEnum):
    CATEGORY1_STORM = "Category1Storm"
    CATEGORY2_STORM = "Category2Storm"
    CATEGORY3_STORM = "Category3Storm"
    CATEGORY4_STORM = "Category4Storm"
    CONTINUOUS_DRIZZLE = "ContinuousDrizzle"
    CONTINUOUS_RAIN = "ContinuousRain"
    CONTINUOUS_SNOW = "ContinuousSnow"
    CYCLONE = "Cyclone"
    DEW = "Dew"
    DRIZZLE = "Drizzle"
    DUST_STORM = "DustStorm"
    EXCESSIVE_HEAT = "ExcessiveHeat"
    FOG = "Fog"
    FREEZING_RAIN = "FreezingRain"
    FROST = "Frost"
    HAIL = "Hail"
    HEAT = "Heat"
    HEAVY_DRIFTING_SNOW_LOW = "HeavyDriftingSnowLow"
    HEAVY_THUNDERSTORM = "HeavyThunderstorm"
    HURRICANE = "Hurricane"
    INTERMITTENT_DRIZZLE = "IntermittentDrizzle"
    INTERMITTENT_RAIN = "IntermittentRain"
    INTERMITTENT_SNOW = "IntermittentSnow"
    LIGHTNING = "Lightning"
    MIST = "Mist"
    PLATE_CRYSTAL = "PlateCrystal"
    RAIN = "Rain"
    RAIN_SHOWER = "RainShower"
    RAINDROP = "Raindrop"
    RAINSTORM = "Rainstorm"
    SANDSTORM = "Sandstorm"
    SLEET = "Sleet"
    SLIGHT_DRIFTING_SNOW_LOW = "SlightDriftingSnowLow"
    SMOKE = "Smoke"
    SNOW = "Snow"
    SNOW_FLURRY = "SnowFlurry"
    SNOW_SHOWER = "SnowShower"
    SNOWFLAKE = "Snowflake"
    SNOWSTORM = "Snowstorm"
    SQUALL = "Squall"
    STELLAR_CRYSTAL = "StellarCrystal"
    STORM = "Storm"
    THUNDER = "Thunder"
    THUNDERSTORM = "Thunderstorm"
    TORNADO = "Tornado"
    TROPICAL_STORM = "TropicalStorm"
